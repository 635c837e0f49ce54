"""The operations a pipeline node can run: one table, ``_REGISTRY``.

Each operation declares its input and output ports, the params a node
may set (checked when the graph is built), ``bind(params, solvers,
node_id)``, which resolves a node's params before any node runs and
raises ConfigurationError on a mistake, and ``fn(bound, inputs, seed,
node_id)``, which gets what ``bind`` returned and returns a dict of
exactly its declared output ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .. import methods  # the module: run_method is looked up when a node runs
from ..arc.programs import check_program_text
from ..arc.prompts import STYLES, format_prompt
from ..arc.task import as_arc_task
from ..core.model import Task
from ..core.runstore import verdict_to_json
from ..errors import ConfigurationError, QuorumError, string
from ..seeds import derive_seed


class GraphValidationError(ConfigurationError):
    pass


@dataclass(frozen=True)
class OpDef:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable
    params: Optional[tuple[str, ...]] = ()  # all a node may set; None: a methods entry and solver_id
    bind: Callable = lambda params, solvers, node_id: params


def op_def(name: str) -> OpDef:
    if name not in _REGISTRY:
        raise GraphValidationError(f"unknown operation {name!r}")
    return _REGISTRY[name]


def _const(params, inputs, seed, node_id):
    return {"value": params.get("value")}


def _passthrough(params, inputs, seed, node_id):
    return {"value": inputs["value"]}


def _join(params, inputs, seed, node_id):
    sep = params.get("sep", "\n")
    return {"value": f"{inputs['a']}{sep}{inputs['b']}"}


def _stub(params, inputs, seed, node_id):
    # Placeholder for stages that need tooling this package does not
    # ship (e.g. formal-proof compilation); emits a fixed marker value.
    return {"value": params.get("value", "stub")}


def _fail(params, inputs, seed, node_id):
    raise QuorumError(params.get("message", "node configured to fail"))


def _bind_style(params, solvers, node_id):
    style = params.get("style", "labeled")
    if style not in STYLES:
        raise ConfigurationError(f"node {node_id!r}: unknown style {style!r}; expected one of {STYLES}")
    return style


def _puzzle_prompt(style, inputs, seed, node_id):
    return {"prompt": format_prompt(as_arc_task(inputs["task"]), style)}


def _bind_solver(params, solvers, node_id):
    solver_id = string(params.get("solver_id"), f"node {node_id!r} solver_id")
    if solver_id not in solvers:
        raise ConfigurationError(f"no solver {solver_id!r} for node {node_id!r}")
    return solvers[solver_id]


def _bind_solve_text(params, solvers, node_id):
    return _bind_solver(params, solvers, node_id), params.get("task_id", node_id)


def _solve_text(bound, inputs, seed, node_id):
    solver, task_id = bound
    return {"text": solver.solve(task_id, inputs["prompt"], derive_seed(seed, node_id))}


def _puzzle_verify(params, inputs, seed, node_id):
    verdict = check_program_text(inputs["program_text"], as_arc_task(inputs["task"]))
    return {"verdict": verdict_to_json(verdict), "passed": verdict.is_pass}


def _bind_method(params, solvers, node_id):
    """A ``run_method`` node's params are one ``methods`` entry of an eval
    config plus the ``solver_id`` of the cell's solver."""
    solver = _bind_solver(params, solvers, node_id)
    return solver, methods.MethodConfig.from_dict({k: v for k, v in params.items() if k != "solver_id"}, solvers)


def _run_method(bound, inputs, seed, node_id):
    """Runs the cell its params describe as eval does."""
    solver, config = bound
    task = inputs["task"] if isinstance(inputs["task"], Task) else Task.from_dict(inputs["task"])
    result, verdict = methods.run_method(config, solver, task, seed=derive_seed(seed, node_id))
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
    "puzzle_prompt": OpDef(("task",), ("prompt",), _puzzle_prompt, ("style",), _bind_style),
    "solve_text": OpDef(("prompt",), ("text",), _solve_text, ("solver_id", "task_id"), _bind_solve_text),
    "puzzle_verify": OpDef(("program_text", "task"), ("verdict", "passed"), _puzzle_verify),
    "run_method": OpDef(("task",), ("answer", "passed", "n_samples"), _run_method, None, _bind_method),
}
