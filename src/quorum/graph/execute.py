"""Graph execution with tracing.

``bind`` resolves every node against a solver table, so a config mistake
in any node stops a graph before its first node runs.  Nodes run in one
canonical topological order.  A node failure halts its downstream
dependents (recorded as skipped); independent branches keep running.  A
node that raises ``ConfigurationError`` (a graph input that is not a
task, say) stops the run with it instead, since no other node can mend a
config mistake.  The trace lists every executed node exactly once with
input and output digests, so two runs with the same seeds are comparable
digest for digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional

from ..errors import ConfigurationError
from .model import PipelineGraph
from .ops import op_def


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


@dataclass(frozen=True)
class BoundGraph:
    graph: PipelineGraph
    values: dict  # node id -> what its op's fn gets (OpDef.bind)


def bind(graph: PipelineGraph, solvers: Mapping) -> BoundGraph:
    """``graph`` with every node's params resolved against ``solvers``; a node
    naming a solver not in ``solvers``, a methods entry eval would reject or
    an unknown prompt style raises ConfigurationError."""
    return BoundGraph(graph, {node_id: op_def(node.op).bind(node.params, solvers, node_id)
                              for node_id, node in sorted(graph.nodes.items())})


def execute(bound: BoundGraph, inputs: dict, seed: int = 0) -> tuple[dict, Trace]:
    """Run a bound graph on the given inputs, each node with its own seed
    derived from ``seed``.

    Returns the declared graph outputs (missing ones map to None when
    their producer failed or was skipped) and the execution trace.
    """
    graph = bound.graph
    missing = set(graph.inputs) - set(inputs)
    if missing:
        raise ConfigurationError(f"missing graph inputs: {sorted(missing)}")

    # What each input port reads: an edge's (node, out port), or ("", name) for
    # a graph input, whose values sit under "", a node id no graph has.
    sources = {(e.dst, e.in_port): (e.src, e.out_port) for e in graph.edges}
    sources.update(((node_id, port), ("", name))
                   for name, bindings in graph.inputs.items() for node_id, port in bindings)
    node_outputs: dict[str, dict] = {"": inputs}

    trace = Trace()
    failed: set[str] = set()
    skipped: set[str] = set()
    deps = graph.dependencies()

    for node_id in graph.topological_order():
        if deps[node_id] & (failed | skipped):
            skipped.add(node_id)
            continue
        definition = op_def(graph.nodes[node_id].op)
        node_inputs = {}
        for port in definition.inputs:
            src, out_port = sources[(node_id, port)]
            node_inputs[port] = node_outputs[src][out_port]
        try:
            out = definition.fn(bound.values[node_id], node_inputs, seed, node_id)
        except ConfigurationError:
            raise  # a config mistake is the caller's to report, not a node failure
        except Exception as exc:  # node errors are data, not crashes
            trace.entries.append(TraceEntry(node_id, digest(node_inputs), digest(None), str(exc)))
            failed.add(node_id)
            continue
        node_outputs[node_id] = out
        trace.entries.append(TraceEntry(node_id, digest(node_inputs), digest(out)))

    trace.skipped = sorted(skipped)
    outputs = {name: node_outputs.get(node_id, {}).get(port) for name, (node_id, port) in graph.outputs.items()}
    return outputs, trace
