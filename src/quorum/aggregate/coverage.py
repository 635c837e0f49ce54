"""Coverage curves: how solved-task coverage grows as solvers are added."""

from __future__ import annotations

from dataclasses import dataclass

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
    import numpy as np

    solved = matrix.solved
    n = matrix.n_tasks

    if ordering == "individual_desc":
        order = sorted(
            range(matrix.n_solvers),
            key=lambda k: (-int(solved[:, k].sum()), matrix.solver_ids[k]),
        )
    else:
        order = []
        covered = np.zeros(n, dtype=bool)
        remaining = set(range(matrix.n_solvers))
        while remaining:
            best = min(
                remaining,
                key=lambda k: (-int((solved[:, k] & ~covered).sum()), matrix.solver_ids[k]),
            )
            order.append(best)
            covered |= solved[:, best]
            remaining.discard(best)

    ids, counts, fractions = [], [], []
    covered = np.zeros(n, dtype=bool)
    for k in order:
        covered |= solved[:, k]
        ids.append(matrix.solver_ids[k])
        counts.append(int(covered.sum()))
        fractions.append(counts[-1] / n)
    return CoverageCurve(tuple(ids), tuple(counts), tuple(fractions))
