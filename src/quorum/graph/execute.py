"""Graph execution with tracing.

Nodes run in one canonical topological order.  A node failure halts its
downstream dependents (recorded as skipped); independent branches keep
running.  A node that raises ``ConfigurationError`` stops the run with
it instead, since no other node can mend a config mistake.  The trace
lists every executed node exactly once with input and output digests,
so two runs with the same seeds are comparable digest for digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..errors import ConfigurationError
from .model import PipelineGraph
from .ops import ExecutionContext, op_def


@dataclass(frozen=True)
class TraceEntry:
    node_id: str
    inputs_digest: str
    output_digest: str
    error: Optional[str] = None


@dataclass
class Trace:
    entries: list[TraceEntry] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # downstream of a failure

    def executed_ids(self) -> list[str]:
        return [e.node_id for e in self.entries]

    def entry(self, node_id: str) -> TraceEntry:
        for e in self.entries:
            if e.node_id == node_id:
                return e
        raise KeyError(node_id)

    def to_json(self) -> dict:
        return {"entries": [asdict(e) for e in self.entries], "skipped": self.skipped}


def _jsonable(value):
    for attr in ("to_json", "to_dict"):
        method = getattr(value, attr, None)
        if callable(method):
            return method()
    if isinstance(value, (set, frozenset)):
        return sorted(map(repr, value))
    return repr(value)


def digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def execute(
    graph: PipelineGraph,
    inputs: dict,
    ctx: Optional[ExecutionContext] = None,
) -> tuple[dict, Trace]:
    """Run a graph on the given inputs.

    Returns the declared graph outputs (missing ones map to None when
    their producer failed or was skipped) and the execution trace.
    """
    ctx = ctx or ExecutionContext()
    missing = set(graph.inputs) - set(inputs)
    if missing:
        raise ConfigurationError(f"missing graph inputs: {sorted(missing)}")

    port_values: dict[tuple, object] = {}
    for name, bindings in graph.inputs.items():
        for node_id, port in bindings:
            port_values[(node_id, port)] = inputs[name]
    feeders = {(e.dst, e.in_port): e for e in graph.edges}

    trace = Trace()
    failed: set[str] = set()
    skipped: set[str] = set()
    node_outputs: dict[str, dict] = {}
    deps = graph.dependencies()

    for node_id in graph.topological_order():
        if deps[node_id] & (failed | skipped):
            skipped.add(node_id)
            continue
        node = graph.nodes[node_id]
        definition = op_def(node.op)
        node_inputs = {}
        for port in definition.inputs:
            edge = feeders.get((node_id, port))
            if edge is not None:
                node_inputs[port] = node_outputs[edge.src][edge.out_port]
            else:
                node_inputs[port] = port_values[(node_id, port)]
        try:
            out = definition.fn(node.params, node_inputs, ctx, node_id)
        except ConfigurationError:
            raise  # a config mistake is the caller's to report, not a node failure
        except Exception as exc:  # node errors are data, not crashes
            trace.entries.append(TraceEntry(node_id, digest(node_inputs), digest(None), str(exc)))
            failed.add(node_id)
            continue
        node_outputs[node_id] = out
        trace.entries.append(TraceEntry(node_id, digest(node_inputs), digest(out)))

    trace.skipped = sorted(skipped)
    outputs = {}
    for name, (node_id, port) in graph.outputs.items():
        outputs[name] = node_outputs.get(node_id, {}).get(port)
    return outputs, trace
