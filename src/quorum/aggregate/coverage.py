"""Coverage curves: how solved-task coverage grows as solvers are added."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .matrix import ResultMatrix

ORDERINGS = ("individual_desc", "greedy_marginal")


@dataclass(frozen=True)
class CoverageCurve:
    solver_ids: tuple[str, ...]
    cumulative_solved: tuple[int, ...]
    cumulative_fraction: tuple[float, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.cumulative_solved, self.cumulative_solved[1:])):
            raise ValueError("cumulative counts must be non-decreasing")

    def to_csv(self) -> str:
        lines = ["solver,cum_solved,cum_fraction"]
        for sid, solved, frac in zip(self.solver_ids, self.cumulative_solved, self.cumulative_fraction):
            lines.append(f"{sid},{solved},{frac:.6f}")
        return "\n".join(lines) + "\n"


def coverage_curve(matrix: ResultMatrix, ordering: str = "individual_desc") -> CoverageCurve:
    """Cumulative OR coverage, adding one solver per step.

    ``individual_desc`` adds solvers by descending individual coverage
    (ties break on solver id); ``greedy_marginal`` adds the solver with
    the largest marginal gain at each step.  Both end at the full OR.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
    ids = matrix.solver_ids
    rows = [set(compress(range(matrix.n_tasks), column)) for column in zip(*matrix.solved)]  # solved rows per solver

    if ordering == "individual_desc":
        order = sorted(range(matrix.n_solvers), key=lambda k: (-len(rows[k]), ids[k]))
    else:
        order, covered = [], set()
        remaining = set(range(matrix.n_solvers))
        while remaining:
            best = min(remaining, key=lambda k: (-len(rows[k] - covered), ids[k]))
            order.append(best)
            covered |= rows[best]
            remaining.discard(best)

    counts, covered = [], set()
    for k in order:
        covered |= rows[k]
        counts.append(len(covered))
    return CoverageCurve(tuple(ids[k] for k in order), tuple(counts),
                         tuple(c / matrix.n_tasks for c in counts))
