"""Task x solver result matrices and their aggregation.

A task counts as solved when any solver's verified candidate was
correct, so the aggregate of a row is its logical OR and the aggregate
success rate is the mean of the row ORs.  Elapsed times are carried for
reporting but never affect aggregation; ``None`` marks an unknown time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class ResultMatrix:
    task_ids: list[str]
    solver_ids: list[str]
    solved: list[list[bool]]  # one row per task, one entry per solver
    elapsed_ms: Optional[list[list[Optional[float]]]] = None  # same shape; None where unknown

    def __post_init__(self):
        set_ = object.__setattr__  # frozen: normalize each field once, here
        set_(self, "task_ids", list(self.task_ids))
        set_(self, "solver_ids", list(self.solver_ids))
        set_(self, "solved", [[bool(v) for v in row] for row in self.solved])
        if self.elapsed_ms is not None:
            set_(self, "elapsed_ms", [[None if v is None else float(v) for v in row] for row in self.elapsed_ms])
        n, k = len(self.task_ids), len(self.solver_ids)
        if n < 1 or k < 1:
            raise ValueError("matrix needs at least one task and one solver")
        if len(set(self.task_ids)) != n:
            raise ValueError("duplicate task ids")
        if len(set(self.solver_ids)) != k:
            raise ValueError("duplicate solver ids")
        for name, rows in (("solved", self.solved), ("elapsed", self.elapsed_ms)):
            if rows is not None and (len(rows) != n or any(len(row) != k for row in rows)):
                raise ValueError(f"{name} rows must be {n} rows of {k}")

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_solvers(self) -> int:
        return len(self.solver_ids)

    def column(self, solver_id: str) -> list[bool]:
        k = self.solver_ids.index(solver_id)
        return [row[k] for row in self.solved]

    def restrict(self, solver_ids: Sequence[str]) -> "ResultMatrix":
        idx = [self.solver_ids.index(s) for s in solver_ids]
        elapsed = None if self.elapsed_ms is None else [[row[k] for k in idx] for row in self.elapsed_ms]
        return ResultMatrix(self.task_ids, list(solver_ids), [[row[k] for k in idx] for row in self.solved], elapsed)

    def to_json(self) -> dict:
        out = {
            "task_ids": list(self.task_ids),
            "solver_ids": list(self.solver_ids),
            "solved": [[int(v) for v in row] for row in self.solved],
        }
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = [list(row) for row in self.elapsed_ms]
        return out

    @classmethod
    def from_json(cls, d: dict) -> "ResultMatrix":
        return cls(d["task_ids"], d["solver_ids"], d["solved"], d.get("elapsed_ms"))


def or_aggregate(matrix: ResultMatrix) -> list[bool]:
    """Per-task solved bit: the logical OR across solvers."""
    return [any(row) for row in matrix.solved]


def success_rate(matrix: ResultMatrix) -> float:
    """Fraction of tasks solved by at least one solver."""
    return sum(or_aggregate(matrix)) / matrix.n_tasks
