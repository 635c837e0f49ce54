"""Graph-edit operators.

A mutation either yields a new valid graph or is rejected whole; the
original graph is never touched.  Kinds cover the meta-learning levels:
parameter search, prompt edits, data edits, and topology edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, integer, json_object, parse_json, string
from .model import Edge, GraphValidationError, NodeDef, PipelineGraph

MUTATION_KINDS = (
    "edit_param",
    "add_node",
    "remove_node",
    "add_edge",
    "remove_edge",
    "edit_prompt",
    "add_data",
    "remove_data",
)


class MutationError(ConfigurationError):
    pass


@dataclass(frozen=True)
class Mutation:
    kind: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MUTATION_KINDS:
            raise MutationError(f"unknown mutation kind {self.kind!r}")


_TARGET_KEY = {
    "edit_param": "node",
    "edit_prompt": "node",
    "add_node": "node",
    "remove_node": "node",
    "add_data": "name",
    "remove_data": "name",
}


def parse_proposal_line(line: str) -> Mutation:
    """The mutation a ``KIND TARGET [JSON-PAYLOAD]`` line spells, as ``graph mutate
    --mutation`` takes it: e.g. ``edit_param sampler {"key": "n", "value": 5}``,
    ``remove_node dead_branch`` or ``remove_edge left.value->join.a``."""
    parts = line.strip().split(None, 2)
    if len(parts) < 2:
        raise MutationError(f"expected 'KIND TARGET [payload]', got {line!r}")
    kind, target = parts[0], parts[1]
    payload = {}
    if len(parts) == 3 and parts[2].strip():
        payload = json_object(parse_json(parts[2], "a mutation payload"), "a mutation payload")
    if kind in _TARGET_KEY:
        payload.setdefault(_TARGET_KEY[kind], target)
    elif kind in ("add_edge", "remove_edge"):
        # target form: src.out_port->dst.in_port
        try:
            src_part, dst_part = target.split("->")
            src, out_port = src_part.rsplit(".", 1)
            dst, in_port = dst_part.rsplit(".", 1)
        except ValueError as exc:
            raise MutationError(f"bad edge target {target!r}") from exc
        payload.update({"src": src, "out_port": out_port, "dst": dst, "in_port": in_port})
    return Mutation(kind, payload)


_VALUE_KEYS = ("value", "item", "index")  # every other payload key names something, so is a string


def _need(payload: dict, *keys):
    json_object(payload, "a mutation payload", required=keys)
    for k in keys:
        if k not in _VALUE_KEYS:
            string(payload[k], f"payload {k!r}")


def mutate(graph: PipelineGraph, mutation: Mutation) -> PipelineGraph:
    """Apply one mutation, returning a new graph or raising MutationError."""
    nodes = dict(graph.nodes)
    edges = set(graph.edges)
    data = dict(graph.data)
    p = mutation.payload
    kind = mutation.kind

    if kind in ("edit_param", "edit_prompt"):
        _need(p, "node", "key", "value")
        if p["node"] not in nodes:
            raise MutationError(f"no node {p['node']!r}")
        node = nodes[p["node"]]
        if kind == "edit_prompt":
            old = node.params.get(p["key"])
            if old is not None and not isinstance(old, str):
                raise MutationError(f"param {p['key']!r} of {p['node']!r} is not a prompt string")
            if not isinstance(p["value"], str):
                raise MutationError("edit_prompt value must be a string")
        nodes[p["node"]] = NodeDef(node.op, {**node.params, p["key"]: p["value"]})
    elif kind == "add_node":
        _need(p, "node", "op")
        if p["node"] in nodes:
            raise MutationError(f"node {p['node']!r} already exists")
        nodes[p["node"]] = NodeDef(p["op"], p.get("params", {}))
    elif kind == "remove_node":
        _need(p, "node")
        if p["node"] not in nodes:
            raise MutationError(f"no node {p['node']!r}")
        del nodes[p["node"]]
        edges = {e for e in edges if p["node"] not in (e.src, e.dst)}
    elif kind == "add_edge":
        _need(p, "src", "out_port", "dst", "in_port")
        edge = Edge(p["src"], p["out_port"], p["dst"], p["in_port"])
        if edge in edges:
            raise MutationError(f"edge {edge} already present")
        edges.add(edge)
    elif kind == "remove_edge":
        _need(p, "src", "out_port", "dst", "in_port")
        edge = Edge(p["src"], p["out_port"], p["dst"], p["in_port"])
        if edge not in edges:
            raise MutationError(f"no edge {edge}")
        edges.discard(edge)
    elif kind == "add_data":
        _need(p, "name", "item")
        data[p["name"]] = data.get(p["name"], ()) + (p["item"],)
    elif kind == "remove_data":
        _need(p, "name", "index")
        items, index = data.get(p["name"], ()), integer(p["index"], "payload 'index'")
        if not 0 <= index < len(items):
            raise MutationError(f"data {p['name']!r} has no index {index!r}")
        data[p["name"]] = items[:index] + items[index + 1:]

    inputs = {
        name: tuple(b for b in bindings if b[0] in nodes)
        for name, bindings in graph.inputs.items()
    }
    outputs = {name: ref for name, ref in graph.outputs.items() if ref[0] in nodes}
    try:
        return PipelineGraph(
            nodes=nodes,
            edges=frozenset(edges),
            inputs=inputs,
            outputs=outputs,
            data=data,
            name=graph.name,
        )
    except GraphValidationError as exc:
        raise MutationError(f"mutation rejected: {exc}") from exc
