"""Candidate verification.

``verify`` is pure and deterministic: for a given (task, candidate) pair
it always returns the same verdict.  Tasks either carry a registered
verifier binding (puzzle train-pair execution, exact game values) or a
reference answer compared after normalization.  Tasks with neither are
unverifiable and yield an error verdict rather than a guess.
"""

from __future__ import annotations

import time
from typing import Callable

from ..errors import ConfigurationError, IntractableError, MalformedAnswerError, QuorumError
from .answers import AnswerValue, normalize_answer
from .model import Candidate, Check, Task, Verdict

DEFAULT_TIMEOUT_S = 10.0

# kind -> (binding check, verify function)
_VERIFIERS: dict[str, tuple[Callable[[dict, str], None], Callable]] = {}


def register_verifier(kind: str, check: Callable[[dict, str], None],
                      fn: Callable[[Task, Candidate, float], Verdict]):
    """``check(params, answer_kind)`` runs when a task is built and raises
    ConfigurationError for a binding the verifier cannot run."""
    _VERIFIERS[kind] = (check, fn)


def check_binding(kind: str, params: dict, answer_kind: str) -> None:
    if kind not in _VERIFIERS:
        raise ConfigurationError(f"unknown verifier kind {kind!r}")
    _VERIFIERS[kind][0](params, answer_kind)


def verify(task: Task, candidate: Candidate, timeout_s: float = DEFAULT_TIMEOUT_S) -> Verdict:
    """Check one candidate against its task.

    Pass iff the bound verifier accepts the candidate, or (with no
    verifier) the normalized answer equals the normalized reference.
    """
    if candidate.is_error:
        return Verdict.errored(f"candidate error: {candidate.error}")
    if task.verifier is not None:
        try:  # a built Task's verifier kind is registered
            return _VERIFIERS[task.verifier.kind][1](task, candidate, timeout_s)
        except TimeoutError:
            return Verdict.errored("timeout")
        except IntractableError as exc:
            return Verdict.errored(f"verifier intractable: {exc}")
        except QuorumError as exc:
            return Verdict.errored(f"verifier error: {exc}")
    if task.reference is not None:
        return _check_reference(task.reference, candidate)
    return Verdict.errored("unverifiable: task has no verifier and no reference answer")


def _check_reference(reference: AnswerValue, candidate: Candidate) -> Verdict:
    got = candidate.answer
    if got is None:
        return Verdict.errored("candidate has no answer")
    if got.kind != reference.kind:
        try:
            got = normalize_answer(got.canonical_text(), reference.kind)
        except MalformedAnswerError as exc:
            return Verdict.errored(f"malformed output: {exc}")
    ok = got == reference
    check = Check(
        "reference-equality",
        ok,
        f"expected {reference.canonical_text()!r}, got {got.canonical_text()!r}",
    )
    return Verdict.passed([check]) if ok else Verdict.failed([check])


def _verify_arc_program(task: Task, candidate: Candidate, timeout_s: float) -> Verdict:
    from ..arc.dsl import parse_dsl
    from ..arc.programs import verify_program
    from ..arc.task import as_arc_task
    from ..errors import DslSyntaxError

    puzzle = as_arc_task(task.verifier.params["task"], task.verifier.params.get("id", task.id))
    if candidate.answer is None or candidate.answer.kind != "text":
        return Verdict.errored("malformed output: puzzle verifier expects program text")
    try:
        program = parse_dsl(candidate.answer.payload)
    except DslSyntaxError as exc:
        return Verdict.errored(f"malformed output: {exc}")
    return verify_program(program, puzzle, timeout_s=timeout_s)


def _verify_game_answer(task: Task, candidate: Candidate, timeout_s: float) -> Verdict:
    from ..games import exact_value

    params = dict(task.verifier.params)
    name = params.pop("game")
    deadline = time.monotonic() + timeout_s
    value = exact_value(name, **params)
    if time.monotonic() > deadline:
        raise TimeoutError
    reference = normalize_answer(str(value), task.answer_kind)
    return _check_reference(reference, candidate)


def _check_arc_binding(params: dict, answer_kind: str) -> None:
    if answer_kind != "text":
        raise ConfigurationError(f"arc_program checks program text, not {answer_kind} answers")
    if "task" not in params:
        raise ConfigurationError("arc_program needs the puzzle as its 'task' parameter")


def _check_game_binding(params: dict, answer_kind: str) -> None:
    from ..games import check_game_task

    check_game_task(params, answer_kind)


register_verifier("arc_program", _check_arc_binding, _verify_arc_program)
register_verifier("game_answer", _check_game_binding, _verify_game_answer)
