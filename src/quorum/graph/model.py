"""Pipeline graphs: operation nodes wired by typed ports.

A graph is a DAG of operation nodes.  Every node input port is fed by
exactly one edge or one declared graph input; operations, their ports
and the params a node may set come from :mod:`quorum.graph.ops`.  Graphs
also carry named data lists (few-shot examples and similar) that
mutations can edit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..errors import json_object, list_of, read_json, string
from .ops import GraphValidationError, op_def


@dataclass(frozen=True)
class NodeDef:
    op: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    src: str
    out_port: str
    dst: str
    in_port: str

    def __str__(self) -> str:
        return f"{self.src}.{self.out_port}->{self.dst}.{self.in_port}"


@dataclass(frozen=True)
class PipelineGraph:
    nodes: dict  # node id -> NodeDef
    edges: frozenset  # of Edge
    inputs: dict  # graph input name -> tuple of (node, in_port)
    outputs: dict  # graph output name -> (node, out_port)
    data: dict = field(default_factory=dict)  # name -> tuple of items
    name: str = "pipeline"

    def __post_init__(self):
        self.validate()

    def validate(self):
        for node_id, node in self.nodes.items():
            if not node_id:
                raise GraphValidationError("empty node id")
            params = json_object(node.params, f"node {node_id!r} params")
            declared = op_def(node.op).params  # raises on unknown op
            unknown = [] if declared is None else sorted(set(params) - set(declared))
            if unknown:
                raise GraphValidationError(f"node {node_id!r}: op {node.op!r} takes no param {unknown[0]!r} "
                                           f"(it takes {', '.join(declared) or 'none'})")
            if not isinstance(params.get("task_id", ""), str):
                raise GraphValidationError(f"node {node_id!r} task_id must be a string, got {params['task_id']!r}")
        fed: dict[tuple, str] = {}
        for edge in self.edges:
            for end, port, direction in ((edge.src, edge.out_port, "out"), (edge.dst, edge.in_port, "in")):
                if end not in self.nodes:
                    raise GraphValidationError(f"edge {edge} references missing node {end!r}")
                ports = op_def(self.nodes[end].op).outputs if direction == "out" else op_def(self.nodes[end].op).inputs
                if port not in ports:
                    raise GraphValidationError(f"edge {edge}: node {end!r} has no {direction} port {port!r}")
            key = (edge.dst, edge.in_port)
            if key in fed:
                raise GraphValidationError(f"input port {key} fed twice ({fed[key]} and {edge})")
            fed[key] = str(edge)
        for name, bindings in self.inputs.items():
            for node_id, port in bindings:
                if node_id not in self.nodes:
                    raise GraphValidationError(f"graph input {name!r} feeds missing node {node_id!r}")
                if port not in op_def(self.nodes[node_id].op).inputs:
                    raise GraphValidationError(f"graph input {name!r}: node {node_id!r} has no in port {port!r}")
                if (node_id, port) in fed:
                    raise GraphValidationError(f"input port ({node_id!r}, {port!r}) fed by edge and graph input")
                fed[(node_id, port)] = f"input:{name}"
        for node_id, node in self.nodes.items():
            for port in op_def(node.op).inputs:
                if (node_id, port) not in fed:
                    raise GraphValidationError(f"input port ({node_id!r}, {port!r}) is unfed")
        for name, (node_id, port) in self.outputs.items():
            if node_id not in self.nodes:
                raise GraphValidationError(f"graph output {name!r} reads missing node {node_id!r}")
            if port not in op_def(self.nodes[node_id].op).outputs:
                raise GraphValidationError(f"graph output {name!r}: node {node_id!r} has no out port {port!r}")
        self.topological_order()  # raises on cycles

    def dependencies(self) -> dict:
        deps = {node_id: set() for node_id in self.nodes}
        for edge in self.edges:
            deps[edge.dst].add(edge.src)
        return deps

    def topological_order(self) -> list[str]:
        """Kahn's algorithm with an id-sorted ready set: one canonical order."""
        deps = self.dependencies()
        remaining = dict(deps)
        order = []
        while remaining:
            ready = sorted(n for n, d in remaining.items() if not d & remaining.keys())
            if not ready:
                cycle = sorted(remaining)
                raise GraphValidationError(f"cycle among nodes {cycle}")
            for n in ready:
                order.append(n)
                del remaining[n]
        return order

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "nodes": {nid: {"op": n.op, "params": n.params} for nid, n in sorted(self.nodes.items())},
            "edges": sorted([e.src, e.out_port, e.dst, e.in_port] for e in self.edges),
            "inputs": {k: [list(b) for b in v] for k, v in sorted(self.inputs.items())},
            "outputs": {k: list(v) for k, v in sorted(self.outputs.items())},
            "data": {k: list(v) for k, v in sorted(self.data.items())},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PipelineGraph":
        def node(nid, spec):
            json_object(spec, f"node {nid!r}", required=("op",), keys=("params",))
            return NodeDef(string(spec["op"], f"node {nid!r} op"),
                           json_object(spec.get("params", {}), f"node {nid!r} params"))

        pair = partial(list_of, entry=string, size=2)  # [node, port]
        edge = partial(list_of, entry=string, size=4)  # [src, out_port, dst, in_port]
        json_object(payload, "a graph", required=("nodes",))
        nodes, inputs, outputs, data = (json_object(payload.get(key, {}), f"graph {key!r}")
                                        for key in ("nodes", "inputs", "outputs", "data"))
        return cls(
            nodes={nid: node(nid, spec) for nid, spec in nodes.items()},
            edges=frozenset(Edge(*spec) for spec in list_of(payload.get("edges", []), "graph 'edges'", edge)),
            inputs={k: list_of(v, f"graph input {k!r}", pair) for k, v in inputs.items()},
            outputs={k: pair(v, f"graph output {k!r}") for k, v in outputs.items()},
            data={k: list_of(v, f"graph data {k!r}") for k, v in data.items()},
            name=string(payload.get("name", "pipeline"), "graph 'name'"),
        )

    @classmethod
    def load(cls, path: str | Path) -> "PipelineGraph":
        return cls.from_json(read_json(path, "the graph file"))

    def save(self, path: str | Path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
