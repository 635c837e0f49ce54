from .answers import ANSWER_KINDS, AnswerValue, normalize_answer
from .model import Candidate, Check, SolverBinding, Task, Verdict, VerifierBinding, register_verifier
from .runstore import CellRecord, RunRecord, RunStore
from .verify import verify

__all__ = [
    "ANSWER_KINDS",
    "AnswerValue",
    "normalize_answer",
    "Candidate",
    "Check",
    "SolverBinding",
    "Task",
    "Verdict",
    "VerifierBinding",
    "CellRecord",
    "RunRecord",
    "RunStore",
    "register_verifier",
    "verify",
]
