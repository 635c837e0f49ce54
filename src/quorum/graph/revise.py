"""Revising a pipeline graph: one-line mutations and A/B tests of variants.

``parse_proposal_line`` reads a mutation written in the strict format::

    KIND TARGET [JSON-PAYLOAD]

e.g. ``edit_param sampler {"key": "n", "value": 5}``,
``remove_node dead_branch`` or ``remove_edge left.value->join.a``;
``graph mutate --mutation`` takes exactly this.  ``ab_test`` runs two or
more graph variants on the same tasks and returns one result-matrix
column per variant.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..aggregate import ResultMatrix, table_name
from ..errors import ConfigurationError, json_object, parse_json
from .execute import execute
from .model import PipelineGraph
from .mutate import Mutation, MutationError
from .ops import ExecutionContext

_TARGET_KEY = {
    "edit_param": "node",
    "edit_prompt": "node",
    "add_node": "node",
    "remove_node": "node",
    "add_data": "name",
    "remove_data": "name",
}


def parse_proposal_line(line: str) -> Mutation:
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


def ab_test(
    variants: Sequence[PipelineGraph],
    tasks: Sequence,
    ctx: Optional[ExecutionContext] = None,
):
    """Run every variant on every task; one result-matrix column per variant.

    A task cell counts as solved when the variant's ``passed`` output is
    truthy, so a node that fails at run time leaves its cell unsolved.
    A config mistake in any variant raises ``ConfigurationError``; column
    names that clash raise it before any variant runs.
    """
    if len(variants) < 2:
        raise ConfigurationError("ab_test needs at least 2 variants")
    if not tasks:
        raise ConfigurationError("ab_test needs a non-empty task list")
    names = []
    for i, variant in enumerate(variants):
        table_name(variant.name, "the graph name")
        names.append(variant.name if variant.name not in names else f"{variant.name}#{i}")
    clashes = sorted({name for name in names if names.count(name) > 1})
    if clashes:
        raise ConfigurationError(f"graphs named {', '.join(repr(v.name) for v in variants)} repeat the column "
                                 f"name(s) {', '.join(map(repr, clashes))}; rename a graph")
    task_ids = [getattr(task, "id", None) or task["id"] for task in tasks]
    solved = [[bool(execute(variant, {"task": task}, ctx)[0].get("passed")) for variant in variants]
              for task in tasks]
    return ResultMatrix(task_ids, names, solved)
