"""Judge-proposed pipeline revisions and A/B testing of graph variants.

The judge (any solver) sees the graph, the trace, and the result, and
replies one mutation per line in the strict format::

    KIND TARGET [JSON-PAYLOAD]

e.g. ``edit_param sampler {"key": "n", "value": 5}`` or
``remove_node dead_branch``.  Unparseable lines and mutations that do
not validate against the graph are dropped with a warning; free-text
advice is ignored by construction.
"""

from __future__ import annotations

import json
import logging
from typing import Optional, Sequence

from ..adapters.base import SolverError
from ..aggregate import ResultMatrix, table_name
from ..errors import ConfigurationError, json_object, parse_json
from ..seeds import derive_seed
from .execute import execute
from .model import PipelineGraph
from .mutate import MUTATION_KINDS, Mutation, MutationError, mutate
from .ops import ExecutionContext

log = logging.getLogger(__name__)

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


def propose_revision(
    graph: PipelineGraph,
    trace,
    result,
    judge,
    seed: int = 0,
) -> list[Mutation]:
    """Ask a judge solver for mutations; return only the valid ones."""
    prompt = (
        "Propose pipeline revisions, one per line, as 'KIND TARGET [JSON]'.\n"
        f"kinds: {', '.join(MUTATION_KINDS)}\n"
        f"graph: {json.dumps(graph.to_json(), sort_keys=True)}\n"
        f"trace: {json.dumps(trace.to_json() if hasattr(trace, 'to_json') else trace, sort_keys=True)}\n"
        f"result: {json.dumps(result, sort_keys=True, default=repr)}"
    )
    try:
        reply = judge.solve(graph.name, prompt, derive_seed(seed, "revise"))
    except SolverError as exc:
        log.warning("judge failed, no proposals: %s", exc)
        return []
    mutations = []
    for line in reply.splitlines():
        if not line.strip():
            continue
        try:
            mutation = parse_proposal_line(line)
            mutate(graph, mutation)  # validation only; discard the result
        except ConfigurationError as exc:
            log.warning("dropping proposal %r: %s", line, exc)
            continue
        mutations.append(mutation)
    return mutations


def ab_test(
    variants: Sequence[PipelineGraph],
    tasks: Sequence,
    ctx: Optional[ExecutionContext] = None,
    input_name: str = "task",
    output_name: str = "passed",
):
    """Run every variant on every task; one result-matrix column per variant.

    A task cell counts as solved when the variant's ``passed`` output is
    truthy, so a node that fails at run time leaves its cell unsolved.
    A config mistake in any variant raises ``ConfigurationError``.
    """
    if len(variants) < 2:
        raise ConfigurationError("ab_test needs at least 2 variants")
    if not tasks:
        raise ConfigurationError("ab_test needs a non-empty task list")
    names = []
    for i, variant in enumerate(variants):
        table_name(variant.name, "the graph name")
        names.append(variant.name if variant.name not in names else f"{variant.name}#{i}")
    task_ids = [getattr(task, "id", None) or task["id"] for task in tasks]
    solved = [[bool(execute(variant, {input_name: task}, ctx)[0].get(output_name)) for variant in variants]
              for task in tasks]
    return ResultMatrix(task_ids, names, solved)
