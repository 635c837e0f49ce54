"""Tasks, candidates, verdicts, and verifier bindings."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from ..errors import ConfigurationError, QuorumError, json_object, string
from .answers import ANSWER_KINDS, AnswerValue, normalize_answer

@dataclass(frozen=True)
class VerifierBinding:
    """Reference to one of the built-in verifiers (``verify.VERIFIERS``)
    plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        json_object(self.params, f"verifier {self.kind!r} params")


@dataclass(frozen=True)
class Task:
    id: str
    category: str
    prompt: str
    answer_kind: str
    reference: Optional[AnswerValue] = None
    verifier: Optional[VerifierBinding] = None
    # check(candidate) -> Verdict, bound from the verifier, else from
    # the reference, and run once per distinct answer; None for an
    # unverifiable task
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
            from .verify import VERIFIERS  # verify imports this module

            if self.verifier.kind not in VERIFIERS:
                raise ConfigurationError(f"unknown verifier kind {self.verifier.kind!r}")
            check = VERIFIERS[self.verifier.kind](self.verifier.params, self.answer_kind, self.id)
        elif self.reference is not None:
            check = partial(check_reference, self.reference)
        if check is not None:
            check = partial(_once_per_answer, check, {})
        object.__setattr__(self, "check", check)

    @classmethod
    def from_dict(cls, entry: dict) -> "Task":
        """Build a task from its JSON form (``id``, ``prompt``, ``answer_kind``,
        optional ``category``, ``reference``, ``verifier``); any mistake in
        it raises ConfigurationError."""
        task_id = string(json_object(entry, "a task", required=("id",))["id"], "a task id", nonempty=True)
        where = f"task {task_id!r}"
        json_object(entry, where, required=("prompt", "answer_kind"))
        prompt, category = (string(entry.get(key, ""), f"{where} {key}") for key in ("prompt", "category"))
        verifier = entry.get("verifier")
        if verifier is not None:
            string(json_object(verifier, f"{where} verifier", required=("kind",))["kind"], f"{where} verifier kind")
        kind, reference = entry["answer_kind"], entry.get("reference")
        try:
            return cls(task_id, category, prompt, kind,
                       None if reference is None else normalize_answer(reference, kind),
                       None if verifier is None else VerifierBinding(verifier["kind"], verifier.get("params", {})))
        except (ValueError, QuorumError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc


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


def check_reference(reference: AnswerValue, candidate: Candidate) -> Verdict:
    """Pass iff the candidate's answer equals the reference; ``verify``
    answers error candidates, and the others are of the reference's kind."""
    got = candidate.answer
    ok = got == reference
    check = Check(
        "reference-equality",
        ok,
        f"expected {reference.canonical_text()!r}, got {got.canonical_text()!r}",
    )
    return Verdict.passed([check]) if ok else Verdict.failed([check])


def _once_per_answer(check: Callable, verdicts: dict, candidate: Candidate) -> Verdict:
    """``check(candidate)``, run once per distinct ``candidate.answer``;
    ``verdicts`` holds the verdict of each answer seen.  Two threads that
    race on a new answer both run the check and store equal verdicts."""
    verdict = verdicts.get(candidate.answer)
    if verdict is None:
        verdict = verdicts[candidate.answer] = check(candidate)
    return verdict
