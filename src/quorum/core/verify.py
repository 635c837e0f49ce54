"""Candidate verification.

``verify`` is pure and deterministic: for a given (task, candidate) pair
it always returns the same verdict.  A task binds its check once, when it
is built: a registered verifier (puzzle train-pair execution, exact game
values) or its reference answer compared after normalization.  Tasks with
neither are unverifiable and yield an error verdict rather than a guess.
"""

from __future__ import annotations

from functools import partial

from ..arc import programs  # the module: its functions are looked up when called
from ..arc.task import TaskFormatError, as_arc_task
from ..errors import ConfigurationError, QuorumError
from .answers import normalize_answer
from .model import Candidate, Task, Verdict, check_reference, register_verifier

DEFAULT_TIMEOUT_S = 10.0


def verify(task: Task, candidate: Candidate, timeout_s: float = DEFAULT_TIMEOUT_S) -> Verdict:
    """Check one candidate against its task.

    Pass iff the bound verifier accepts the candidate, or (with no
    verifier) the normalized answer equals the normalized reference.
    """
    if candidate.is_error:
        return Verdict.errored(f"candidate error: {candidate.error}")
    if task.check is None:
        return Verdict.errored("unverifiable: task has no verifier and no reference answer")
    return task.check(candidate, timeout_s)


def _check_program(puzzle, candidate: Candidate, timeout_s: float) -> Verdict:
    if candidate.answer is None or candidate.answer.kind != "text":
        return Verdict.errored("malformed output: puzzle verifier expects program text")
    return programs.check_program_text(candidate.answer.payload, puzzle, timeout_s)


def _bind_arc_program(params: dict, answer_kind: str, task_id: str):
    if answer_kind != "text":
        raise ConfigurationError(f"arc_program checks program text, not {answer_kind} answers")
    if "task" not in params:
        raise ConfigurationError("arc_program needs the puzzle as its 'task' parameter")
    try:
        puzzle = as_arc_task(params["task"], params.get("id", task_id))
    except TaskFormatError as exc:
        raise ConfigurationError(f"arc_program puzzle: {exc}") from exc
    return partial(_check_program, puzzle)


def _bind_game_answer(params: dict, answer_kind: str, task_id: str):
    from ..games import check_game_task, exact_value  # local import: games load on first use

    check_game_task(params, answer_kind)
    name = params["game"]
    try:
        value = exact_value(name, **{k: v for k, v in params.items() if k != "game"})
    except (QuorumError, TypeError) as exc:
        raise ConfigurationError(f"game {name!r}: {exc}") from exc
    return partial(check_reference, normalize_answer(str(value), answer_kind))


register_verifier("arc_program", _bind_arc_program)
register_verifier("game_answer", _bind_game_answer)
