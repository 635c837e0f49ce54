"""Tasks, candidates, verdicts, and solver/verifier bindings."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from ..errors import ConfigurationError, MalformedAnswerError, QuorumError
from .answers import ANSWER_KINDS, AnswerValue, normalize_answer

# verifier kind -> bind(params, answer_kind, task_id) -> check
_VERIFIERS: dict[str, Callable] = {}


def register_verifier(kind: str, bind: Callable) -> None:
    """``bind(params, answer_kind, task_id)`` runs once, when a task is
    built.  It raises ConfigurationError for a binding the verifier cannot
    run, and returns the task's ``check(candidate, timeout_s) -> Verdict``
    with all task-only work already done.  The check is shared between
    threads, so it holds only immutable state."""
    _VERIFIERS[kind] = bind


@dataclass(frozen=True)
class VerifierBinding:
    """Reference to a registered verifier plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Task:
    id: str
    category: str
    prompt: str
    answer_kind: str
    reference: Optional[AnswerValue] = None
    verifier: Optional[VerifierBinding] = None
    # check(candidate, timeout_s) -> Verdict, bound from the verifier, else
    # from the reference; None for an unverifiable task
    check: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("task id must be non-empty")
        if self.answer_kind not in ANSWER_KINDS:
            raise ValueError(f"unknown answer kind {self.answer_kind!r}")
        if self.reference is not None and self.reference.kind != self.answer_kind:
            raise ValueError(
                f"reference kind {self.reference.kind!r} does not match task kind {self.answer_kind!r}"
            )
        check = None
        if self.verifier is not None:
            if self.verifier.kind not in _VERIFIERS:
                raise ConfigurationError(f"unknown verifier kind {self.verifier.kind!r}")
            check = _VERIFIERS[self.verifier.kind](self.verifier.params, self.answer_kind, self.id)
        elif self.reference is not None:
            check = partial(check_reference, self.reference)
        object.__setattr__(self, "check", check)

    @classmethod
    def from_dict(cls, entry: dict) -> "Task":
        """Build a task from its JSON form (``id``, ``prompt``, ``answer_kind``,
        optional ``category``, ``reference``, ``verifier``); any mistake in
        it raises ConfigurationError."""
        try:
            kind = entry["answer_kind"]
            reference = entry.get("reference")
            verifier = entry.get("verifier")
            return cls(
                id=entry["id"],
                category=entry.get("category", ""),
                prompt=entry["prompt"],
                answer_kind=kind,
                reference=None if reference is None else normalize_answer(reference, kind),
                verifier=None if verifier is None else VerifierBinding(verifier["kind"], verifier.get("params", {})),
            )
        except KeyError as exc:
            raise ConfigurationError(f"task {entry.get('id')!r} needs a {exc.args[0]!r} entry") from exc
        except (ValueError, QuorumError) as exc:
            raise ConfigurationError(f"task {entry.get('id')!r}: {exc}") from exc


@dataclass(frozen=True)
class Candidate:
    """One solver's proposed answer for one task."""

    answer: Optional[AnswerValue]
    solver_id: str
    method_id: str
    seed: int
    elapsed_ms: int = 0
    rationale: Optional[str] = None
    error: Optional[str] = None

    def __post_init__(self):
        if not self.solver_id or not self.method_id:
            raise ValueError("solver_id and method_id must be non-empty")
        if self.elapsed_ms < 0:
            raise ValueError("elapsed_ms must be >= 0")
        if self.answer is None and self.error is None:
            raise ValueError("a candidate needs an answer or an error cause")

    @property
    def is_error(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    """Outcome of verifying one candidate.

    ``pass`` requires a non-empty check list with every check passing;
    ``error`` carries the failure cause (timeout, crash, malformed
    output, unverifiable) in ``detail``.
    """

    status: str
    checks: tuple[Check, ...] = ()
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "error"):
            raise ValueError(f"unknown verdict status {self.status!r}")
        all_ok = bool(self.checks) and all(c.passed for c in self.checks)
        if self.status == "pass" and not all_ok:
            raise ValueError("pass verdict requires non-empty, all-passing checks")
        if self.status == "fail" and all_ok:
            raise ValueError("fail verdict contradicts all-passing checks")
        if self.status == "error" and not self.detail:
            raise ValueError("error verdict must name its cause in detail")

    @classmethod
    def passed(cls, checks: list[Check]) -> "Verdict":
        return cls("pass", tuple(checks))

    @classmethod
    def failed(cls, checks: list[Check], detail: str = "") -> "Verdict":
        return cls("fail", tuple(checks), detail)

    @classmethod
    def errored(cls, cause: str, checks: list[Check] = ()) -> "Verdict":
        return cls("error", tuple(checks), cause)

    @property
    def is_pass(self) -> bool:
        return self.status == "pass"


def check_reference(reference: AnswerValue, candidate: Candidate, timeout_s: float) -> Verdict:
    """Pass iff the candidate's answer, normalized as the reference's kind,
    equals the reference (at once, so ``timeout_s`` goes unused)."""
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


@dataclass(frozen=True)
class SolverBinding:
    """Declarative reference to a solver; resolved by the adapters module."""

    id: str
    kind: str  # scripted | http-model
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ConfigurationError("solver id must be non-empty")
        if self.kind not in ("scripted", "http-model"):
            raise ConfigurationError(f"unknown solver kind {self.kind!r}")
