"""The solver contract and the sampling wrapper.

A solver is anything with an ``id`` and ``solve(task_id, prompt, seed)
-> str``.  Solvers that support two-stage sampling (a rationale prefix
followed by a completion conditioned on it) additionally provide
``solve_prefix(task_id, prompt, seed) -> str`` and
``solve_completion(task_id, prompt, prefix, seed) -> str``.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..core.answers import normalize_answer
from ..core.model import Candidate, Task
from ..errors import MalformedAnswerError, QuorumError


class SolverError(QuorumError):
    """A solver failed to produce output (network, crash, refusal)."""


def supports_two_stage(solver) -> bool:
    return callable(getattr(solver, "solve_prefix", None)) and callable(getattr(solver, "solve_completion", None))


def sample(
    solver,
    task: Task,
    seed: int,
    method_id: str = "sample",
    prompt: Optional[str] = None,
    rationale: Optional[str] = None,
    call: Optional[Callable[[], tuple[str, Optional[str]]]] = None,
) -> Candidate:
    """Draw one candidate from a solver.

    The timed call is ``solver.solve`` on ``prompt`` (default: the task
    prompt), or ``call()``, which returns the raw text and the rationale
    to record with it (None for the default below).  A successful draw
    keeps the raw text as its rationale when normalizing changed it.
    Solver failures and malformed outputs become error candidates, never
    exceptions; retry policy lives inside the individual solvers.
    """
    answer = error = None
    start = time.monotonic()
    try:
        if call is None:
            raw = solver.solve(task.id, task.prompt if prompt is None else prompt, seed)
        else:
            raw, rationale = call()
        answer = normalize_answer(raw, task.answer_kind)
    except SolverError as exc:
        error = str(exc)
    except MalformedAnswerError as exc:
        error = f"malformed output: {exc}"
    else:
        if rationale is None and raw != answer.canonical_text():
            rationale = raw
    return Candidate(
        answer=answer,
        solver_id=solver.id,
        method_id=method_id,
        seed=seed,
        elapsed_ms=_elapsed_ms(solver, start),
        rationale=rationale,
        error=error,
    )


def _elapsed_ms(solver, start: float) -> int:
    # Scripted solvers report zero so that fixed-seed runs serialize
    # byte-identically; wall time only means something for real backends.
    if getattr(solver, "deterministic_timing", False):
        return 0
    return max(0, int((time.monotonic() - start) * 1000))
