"""Guaranteed red circles on a downward path through a colored triangle.

One circle per row is red.  The adversary colors to minimize, the
walker picks the path maximizing red circles visited.  The walker's
dynamic program keeps, after row i, the most reds on any path ending at
each circle of that row; the rows below see nothing else of the
coloring.  So the solver keeps the set of distinct DP rows reachable
under some coloring, row by row, and the guarantee is the least best
total over the last row's set.  Triangles are limited to n <= 8 rows.
"""

from __future__ import annotations

from ..errors import ConfigurationError, IntractableError
from .base import GameSpec

ROW_LIMIT = 8


def ninja_guarantee(n: int) -> int:
    """Largest k such that every coloring admits a path with k reds."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n > ROW_LIMIT:
        raise IntractableError(f"the solver is limited to n <= {ROW_LIMIT}")
    rows = {(1,)}  # the top circle is always red
    for i in range(1, n):
        rows = {tuple(max(dp[max(j - 1, 0):j + 1]) + (j == red) for j in range(i + 1))
                for dp in rows for red in range(i + 1)}
    return min(map(max, rows))


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
        cols = coloring if coloring is not None else tuple(int(rng.random() * (i + 1)) for i in range(n))
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
