from .answers import ANSWER_KINDS, AnswerValue, normalize_answer
from .model import Candidate, Check, Task, Verdict, VerifierBinding
from .runstore import CellRecord, RunRecord, RunStore
from .verify import verify

__all__ = [
    "ANSWER_KINDS",
    "AnswerValue",
    "normalize_answer",
    "Candidate",
    "Check",
    "Task",
    "Verdict",
    "VerifierBinding",
    "CellRecord",
    "RunRecord",
    "RunStore",
    "verify",
]
