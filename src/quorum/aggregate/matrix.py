"""Task x solver result matrices and their aggregation.

A task counts as solved when any solver's verified candidate was
correct, so the aggregate of a row is its logical OR and the aggregate
success rate is the mean of the row ORs.  Elapsed times are carried for
reporting but never affect aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ResultMatrix:
    task_ids: list[str]
    solver_ids: list[str]
    solved: np.ndarray  # bool, shape (N, K)
    elapsed_ms: Optional[np.ndarray] = None  # float, NaN where unknown

    def __init__(
        self,
        task_ids: Sequence[str],
        solver_ids: Sequence[str],
        solved,
        elapsed_ms=None,
    ):
        import numpy as np  # loaded with the first matrix, not with the package

        self.task_ids = list(task_ids)
        self.solver_ids = list(solver_ids)
        self.solved = np.asarray(solved, dtype=bool)
        if elapsed_ms is None:
            self.elapsed_ms = None
        else:
            rows = [[np.nan if v is None else float(v) for v in row] for row in elapsed_ms]
            self.elapsed_ms = np.asarray(rows, dtype=float)
        self._validate()

    def _validate(self):
        n, k = len(self.task_ids), len(self.solver_ids)
        if n < 1 or k < 1:
            raise ValueError("matrix needs at least one task and one solver")
        if len(set(self.task_ids)) != n:
            raise ValueError("duplicate task ids")
        if len(set(self.solver_ids)) != k:
            raise ValueError("duplicate solver ids")
        if self.solved.shape != (n, k):
            raise ValueError(f"solved shape {self.solved.shape} != ({n}, {k})")
        if self.elapsed_ms is not None and self.elapsed_ms.shape != (n, k):
            raise ValueError(f"elapsed shape {self.elapsed_ms.shape} != ({n}, {k})")

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_solvers(self) -> int:
        return len(self.solver_ids)

    def column(self, solver_id: str) -> np.ndarray:
        return self.solved[:, self.solver_ids.index(solver_id)]

    def restrict(self, solver_ids: Sequence[str]) -> "ResultMatrix":
        idx = [self.solver_ids.index(s) for s in solver_ids]
        elapsed = None if self.elapsed_ms is None else self.elapsed_ms[:, idx]
        return ResultMatrix(self.task_ids, list(solver_ids), self.solved[:, idx], elapsed)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultMatrix):
            return NotImplemented
        import numpy as np

        if self.task_ids != other.task_ids or self.solver_ids != other.solver_ids:
            return False
        if not np.array_equal(self.solved, other.solved):
            return False
        a, b = self.elapsed_ms, other.elapsed_ms
        if (a is None) != (b is None):
            return False
        return a is None or np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
            np.nan_to_num(a), np.nan_to_num(b)
        )

    def to_json(self) -> dict:
        out = {
            "task_ids": self.task_ids,
            "solver_ids": self.solver_ids,
            "solved": self.solved.astype(int).tolist(),
        }
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = [
                [None if math.isnan(v) else v for v in row] for row in self.elapsed_ms
            ]
        return out

    @classmethod
    def from_json(cls, d: dict) -> "ResultMatrix":
        return cls(d["task_ids"], d["solver_ids"], d["solved"], d.get("elapsed_ms"))


def or_aggregate(matrix: ResultMatrix) -> np.ndarray:
    """Per-task solved bit: the logical OR (maximum) across solvers."""
    return matrix.solved.any(axis=1)


def success_rate(matrix: ResultMatrix) -> float:
    """Fraction of tasks solved by at least one solver."""
    return float(or_aggregate(matrix).mean())
