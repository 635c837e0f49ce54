"""Guaranteed red circles on a downward path through a colored triangle.

One circle per row is red.  The adversary colors to minimize, the
walker picks the path maximizing red circles visited.  Exhaustive
enumeration over all colorings (row i has i choices, so n! total) with
a max-path dynamic program per coloring.
"""

from __future__ import annotations

from itertools import product

from ..errors import ConfigurationError, IntractableError
from .base import GameSpec

ENUM_LIMIT = 8  # 8! = 40320 colorings


def best_path_reds(coloring: tuple[int, ...]) -> int:
    """Max red circles over all root-to-bottom paths for one coloring."""
    n = len(coloring)
    dp = [1 if coloring[0] == 0 else 0]
    for i in range(1, n):
        row = []
        for j in range(i + 1):
            above = max(dp[k] for k in (j - 1, j) if 0 <= k < i)
            row.append(above + (1 if coloring[i] == j else 0))
        dp = row
    return max(dp)


def ninja_guarantee(n: int) -> int:
    """Largest k such that every coloring admits a path with k reds."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n > ENUM_LIMIT:
        raise IntractableError(f"exhaustive enumeration is limited to n <= {ENUM_LIMIT}")
    return min(
        best_path_reds(coloring)
        for coloring in product(*(range(i + 1) for i in range(n)))
    )


def ninja_game(n: int, coloring: tuple[int, ...] | None = None) -> GameSpec:
    """Simulation encoding: walk down, +1 on every red circle entered.

    With no fixed coloring, each episode colors rows uniformly at
    random from the environment stream.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if coloring is not None and len(coloring) != n:
        raise ConfigurationError(f"coloring needs {n} entries")

    def initial_state(rng):
        cols = coloring if coloring is not None else tuple(int(rng.integers(i + 1)) for i in range(n))
        # state: (coloring, row, position); row -1 = before entering the top
        return (cols, -1, 0)

    def legal_actions(state):
        _, row, _ = state
        if row == -1:
            return ["enter"]
        return ["left", "right"]

    def transition(state, action, rng):
        cols, row, pos = state
        if action == "enter":
            nxt = (cols, 0, 0)
            return nxt, 1.0 if cols[0] == 0 else 0.0
        npos = pos if action == "left" else pos + 1
        nxt = (cols, row + 1, npos)
        return nxt, 1.0 if cols[row + 1] == npos else 0.0

    return GameSpec(
        name=f"ninja-{n}",
        params={"n": n, "fixed_coloring": coloring is not None},
        initial_state=initial_state,
        legal_actions=legal_actions,
        transition=transition,
        is_terminal=lambda state: state[1] == n - 1,
    )
