"""Candidate verification.

``verify`` is pure and deterministic: for a given (task, candidate) pair
it always returns the same verdict.  A task binds its check once, when it
is built: one of the built-in verifiers in ``VERIFIERS`` (puzzle
train-pair execution, exact game values) or its reference answer
compared after normalization.  Tasks with neither are unverifiable and
yield an error verdict rather than a guess.

A bound check depends only on ``candidate.answer``, so the task runs it
at most once per distinct answer and keeps each verdict in a memo for
its own life; an error candidate is answered here and never reaches it.
That memo is the one piece of mutable state the ``--parallel`` threads
share; two threads that race on a new answer may both run its check,
which costs only time.
"""

from __future__ import annotations

from functools import partial

from ..arc import programs  # the module: its functions are looked up when called
from ..arc.task import as_arc_task
from ..errors import ConfigurationError, QuorumError, json_object
from .answers import normalize_answer
from .model import Candidate, Task, Verdict, check_reference


def verify(task: Task, candidate: Candidate) -> Verdict:
    """Check one candidate against its task.

    Pass iff the bound verifier accepts the candidate, or (with no
    verifier) the normalized answer equals the normalized reference.
    """
    if candidate.is_error:
        return Verdict.errored(f"candidate error: {candidate.error}")
    if task.check is None:
        return Verdict.errored("unverifiable: task has no verifier and no reference answer")
    return task.check(candidate)


def _check_program(puzzle, candidate: Candidate) -> Verdict:
    # bound only for text tasks, so the answer is program text
    return programs.check_program_text(candidate.answer.payload, puzzle)


def _bind_arc_program(params: dict, answer_kind: str, task_id: str):
    if answer_kind != "text":
        raise ConfigurationError(f"arc_program checks program text, not {answer_kind} answers")
    json_object(params, "arc_program params", required=("task",))
    return partial(_check_program, as_arc_task(params["task"], params.get("id", task_id)))


def _bind_game_answer(params: dict, answer_kind: str, task_id: str):
    from ..games import check_game_task, exact_value  # local import: games load on first use

    check_game_task(params, answer_kind)
    name = params["game"]
    try:
        value = exact_value(name, **{k: v for k, v in params.items() if k != "game"})
    except (QuorumError, TypeError) as exc:
        raise ConfigurationError(f"game {name!r}: {exc}") from exc
    return partial(check_reference, normalize_answer(str(value), answer_kind))


# Verifier kind -> ``bind(params, answer_kind, task_id)``, run once when a
# task is built.  It raises ConfigurationError for a binding the verifier
# cannot run, and returns the task's ``check(candidate) -> Verdict`` with
# all task-only work already done.  The check depends only on
# ``candidate.answer`` (the task runs it once per distinct answer) and
# holds only immutable state, since threads share it.
VERIFIERS = {"arc_program": _bind_arc_program, "game_answer": _bind_game_answer}
