"""The operations a pipeline node can run: one table, ``_REGISTRY``.

Each operation declares its input and output ports, the params a node
may set (checked when the graph is built), and a function
``fn(params, inputs, ctx, node_id) -> dict of outputs`` that returns
exactly its declared output ports.  The execution context carries the
solver registry and the root seed, so nodes stay declarative and
serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ConfigurationError, QuorumError, string
from ..seeds import derive_seed


@dataclass
class ExecutionContext:
    solvers: dict = field(default_factory=dict)
    seed: int = 0


@dataclass(frozen=True)
class OpDef:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable
    params: Optional[tuple[str, ...]] = ()  # all a node may set; None: a methods entry and solver_id


def op_def(name: str) -> OpDef:
    from .model import GraphValidationError

    if name not in _REGISTRY:
        raise GraphValidationError(f"unknown operation {name!r}")
    return _REGISTRY[name]


def _const(params, inputs, ctx, node_id):
    return {"value": params.get("value")}


def _passthrough(params, inputs, ctx, node_id):
    return {"value": inputs["value"]}


def _join(params, inputs, ctx, node_id):
    sep = params.get("sep", "\n")
    return {"value": f"{inputs['a']}{sep}{inputs['b']}"}


def _stub(params, inputs, ctx, node_id):
    # Placeholder for stages that need tooling this package does not
    # ship (e.g. formal-proof compilation); emits a fixed marker value.
    return {"value": params.get("value", "stub")}


def _fail(params, inputs, ctx, node_id):
    raise QuorumError(params.get("message", "node configured to fail"))


def _puzzle_prompt(params, inputs, ctx, node_id):
    from ..arc.prompts import format_prompt
    from ..arc.task import as_arc_task

    return {"prompt": format_prompt(as_arc_task(inputs["task"]), params.get("style", "labeled"))}


def _node_solver(params, ctx, node_id):
    solver_id = string(params.get("solver_id"), f"node {node_id!r} solver_id")
    if solver_id not in ctx.solvers:
        raise ConfigurationError(f"no solver {solver_id!r} in execution context")
    return ctx.solvers[solver_id]


def _method_cell(params, ctx, node_id):
    """The method config and solver of a ``run_method`` node, whose ``params``
    are one ``methods`` entry of an eval config plus the ``solver_id`` of the
    cell's solver."""
    from ..methods import MethodConfig

    solver = _node_solver(params, ctx, node_id)
    return MethodConfig.from_dict({k: v for k, v in params.items() if k != "solver_id"}, ctx.solvers), solver


def _solve_text(params, inputs, ctx, node_id):
    solver = _node_solver(params, ctx, node_id)
    seed = derive_seed(ctx.seed, node_id)
    return {"text": solver.solve(params.get("task_id", node_id), inputs["prompt"], seed)}


def _puzzle_verify(params, inputs, ctx, node_id):
    from ..arc.programs import check_program_text
    from ..arc.task import as_arc_task
    from ..core.runstore import verdict_to_json

    verdict = check_program_text(inputs["program_text"], as_arc_task(inputs["task"]))
    return {"verdict": verdict_to_json(verdict), "passed": verdict.is_pass}


def _run_method(params, inputs, ctx, node_id):
    """Runs the cell its ``params`` describe (``_method_cell``) as eval does."""
    from ..core.model import Task
    from ..methods import run_method

    task = inputs["task"] if isinstance(inputs["task"], Task) else Task.from_dict(inputs["task"])
    config, solver = _method_cell(params, ctx, node_id)
    result, verdict = run_method(config, solver, task, seed=derive_seed(ctx.seed, node_id))
    answer = result.candidate.answer
    return {
        "answer": answer.canonical_text() if answer else None,
        "passed": verdict.is_pass,
        "n_samples": len(result.trace.samples),
    }


_REGISTRY: dict[str, OpDef] = {
    "const": OpDef((), ("value",), _const, ("value",)),
    "passthrough": OpDef(("value",), ("value",), _passthrough),
    "join": OpDef(("a", "b"), ("value",), _join, ("sep",)),
    "stub": OpDef((), ("value",), _stub, ("value",)),
    "fail": OpDef(("value",), ("value",), _fail, ("message",)),
    "puzzle_prompt": OpDef(("task",), ("prompt",), _puzzle_prompt, ("style",)),
    "solve_text": OpDef(("prompt",), ("text",), _solve_text, ("solver_id", "task_id")),
    "puzzle_verify": OpDef(("program_text", "task"), ("verdict", "passed"), _puzzle_verify),
    "run_method": OpDef(("task",), ("answer", "passed", "n_samples"), _run_method, None),
}


def check_solvers(graph, solvers) -> None:
    """Raise ConfigurationError unless every node's ``solver_id`` names one of
    ``solvers`` and every ``run_method`` node holds a methods entry eval takes,
    so that no node meets such a mistake while it runs."""
    ctx = ExecutionContext(solvers)
    for node_id, node in sorted(graph.nodes.items()):
        check = {"solve_text": _node_solver, "run_method": _method_cell}.get(node.op)
        if check is not None:
            check(node.params, ctx, node_id)
