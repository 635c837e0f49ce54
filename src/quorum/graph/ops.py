"""Operation registry for pipeline nodes.

Each operation declares its input and output ports and a function
``fn(params, inputs, ctx) -> dict of outputs``.  The execution context
carries the solver registry, the root seed, and the verification hook,
so nodes stay declarative and serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError, QuorumError
from ..seeds import derive_seed


@dataclass
class ExecutionContext:
    solvers: dict = field(default_factory=dict)
    seed: int = 0

    def solver(self, solver_id: str):
        if solver_id not in self.solvers:
            raise ConfigurationError(f"no solver {solver_id!r} in execution context")
        return self.solvers[solver_id]


@dataclass(frozen=True)
class OpDef:
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable


_REGISTRY: dict[str, OpDef] = {}


def register_op(name: str, inputs: tuple[str, ...], outputs: tuple[str, ...]):
    def wrap(fn):
        _REGISTRY[name] = OpDef(name, inputs, outputs, fn)
        return fn

    return wrap


def op_def(name: str) -> OpDef:
    from .model import GraphValidationError

    if name not in _REGISTRY:
        raise GraphValidationError(f"unknown operation {name!r}")
    return _REGISTRY[name]


def known_ops() -> list[str]:
    return sorted(_REGISTRY)


@register_op("const", (), ("value",))
def _const(params, inputs, ctx, node_id):
    return {"value": params.get("value")}


@register_op("passthrough", ("value",), ("value",))
def _passthrough(params, inputs, ctx, node_id):
    return {"value": inputs["value"]}


@register_op("join", ("a", "b"), ("value",))
def _join(params, inputs, ctx, node_id):
    sep = params.get("sep", "\n")
    return {"value": f"{inputs['a']}{sep}{inputs['b']}"}


@register_op("stub", (), ("value",))
def _stub(params, inputs, ctx, node_id):
    # Placeholder for stages that need tooling this package does not
    # ship (e.g. formal-proof compilation); emits a fixed marker value.
    return {"value": params.get("value", "stub")}


@register_op("fail", ("value",), ("value",))
def _fail(params, inputs, ctx, node_id):
    raise QuorumError(params.get("message", "node configured to fail"))


@register_op("puzzle_prompt", ("task",), ("prompt",))
def _puzzle_prompt(params, inputs, ctx, node_id):
    from ..arc.prompts import format_prompt
    from ..arc.task import as_arc_task

    return {"prompt": format_prompt(as_arc_task(inputs["task"]), params.get("style", "labeled"))}


@register_op("solve_text", ("prompt",), ("text",))
def _solve_text(params, inputs, ctx, node_id):
    solver = ctx.solver(params["solver_id"])
    seed = derive_seed(ctx.seed, node_id)
    return {"text": solver.solve(params.get("task_id", node_id), inputs["prompt"], seed)}


@register_op("puzzle_verify", ("program_text", "task"), ("verdict", "passed"))
def _puzzle_verify(params, inputs, ctx, node_id):
    from ..arc.programs import check_program_text
    from ..arc.task import as_arc_task
    from ..core.runstore import verdict_to_json

    verdict = check_program_text(inputs["program_text"], as_arc_task(inputs["task"]))
    return {"verdict": verdict_to_json(verdict), "passed": verdict.is_pass}


@register_op("run_method", ("task",), ("answer", "passed", "n_samples"))
def _run_method(params, inputs, ctx, node_id):
    from ..core.model import Task
    from ..core.verify import verify
    from ..methods import MethodConfig, run_method

    task = inputs["task"]
    if isinstance(task, dict):
        task = Task.from_dict(task)
    # A node keeps the method's own params under ``method_params`` and its
    # ``extra_solver_ids`` beside them; a run config nests both in ``params``.
    config = MethodConfig.from_dict(
        {"method_id": "zero_shot", **params,
         "params": {**params.get("method_params", {}), "extra_solver_ids": params.get("extra_solver_ids", [])}},
        ctx.solvers,
    )
    solver = ctx.solver(params["solver_id"])
    verifiable = task.check is not None
    result = run_method(
        config,
        solver,
        task,
        verifier=verify if verifiable and params.get("use_verifier", True) else None,
        seed=derive_seed(ctx.seed, node_id),
    )
    cand = result.candidate
    return {
        "answer": cand.answer.canonical_text() if cand.answer else None,
        "passed": verifiable and cand.answer is not None and verify(task, cand).is_pass,
        "n_samples": len(result.trace.samples),
    }
