"""Guaranteed-attempts search for the snail-vs-monsters board game.

Board: ``rows`` x ``cols``; one hidden monster in every row except the
first and last, at most one monster per column.  The player repeatedly
walks from the first row; stepping on a monster ends the attempt (the
monster stays revealed) and the player must guarantee reaching the last
row within some number of attempts against every consistent placement.

The full-size competition board (2024 rows by 2023 columns) is known to
have value 3; this module computes exact values for small boards and
refuses sizes beyond its search bound rather than approximating.

The raw walk-level game tree is intractable, but movement through cells
that are provably safe is free, so an attempt reduces to a sequence of
probes on the frontier of the provably-safe component containing the
first row.  "Provably safe" includes deduction: a cell no consistent
placement assigns a monster (revealing a monster clears the rest of its
row and column).  The adversary answers each probe with whichever of
monster/safe is consistent and worse for the player, so the value is a
memoized AND-OR (minimax) search over knowledge states, where knowledge
is exactly the set of still-consistent placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from ..errors import ConfigurationError, IntractableError, QuorumError
from .base import GameSpec

MAX_ROWS = 5
MAX_COLS = 4

STEP_PENALTY = -0.01
COLLISION_PENALTY = -1.0
ATTEMPT_REWARDS = (30.0, 20.0, 10.0)  # reaching the last row on attempt 1, 2, 3


class UnwinnableError(QuorumError):
    """Some placement walls the last row off entirely (small boards only)."""


def _check_dims(rows: int, cols: int):
    if rows < 3 or cols < 2:
        raise ConfigurationError("board needs rows >= 3 and cols >= 2")
    if rows > MAX_ROWS or cols > MAX_COLS:
        raise IntractableError(
            f"exact search is limited to rows <= {MAX_ROWS}, cols <= {MAX_COLS}"
        )
    if cols < rows - 2:
        raise ConfigurationError(
            f"{rows - 2} monsters need {rows - 2} distinct columns, board has {cols}"
        )


def all_placements(rows: int, cols: int) -> list[tuple[int, ...]]:
    """Every assignment of one column per middle row, columns distinct."""
    return list(permutations(range(1, cols + 1), rows - 2))


@dataclass(frozen=True)
class TurboKnowledge:
    """What the player has learned: revealed monsters and probed-safe cells."""

    rows: int
    cols: int
    monsters: frozenset = frozenset()
    safe: frozenset = frozenset()

    def __post_init__(self):
        for r, c in self.monsters:
            if not (2 <= r <= self.rows - 1 and 1 <= c <= self.cols):
                raise ValueError(f"monster at ({r},{c}) outside the middle rows")
        rows_seen = [r for r, _ in self.monsters]
        cols_seen = [c for _, c in self.monsters]
        if len(set(rows_seen)) != len(rows_seen) or len(set(cols_seen)) != len(cols_seen):
            raise ValueError("at most one monster per row and per column")
        if self.monsters & self.safe:
            raise ValueError("a cell cannot be both a monster and probed safe")
        if not self.consistent_placements():
            raise ValueError("knowledge is inconsistent with every legal placement")

    def consistent_placements(self) -> list[tuple[int, ...]]:
        out = []
        for p in all_placements(self.rows, self.cols):
            cells = {(i + 2, col) for i, col in enumerate(p)}
            if self.monsters <= cells and not (cells & self.safe):
                out.append(p)
        return out


def _monster_at(placement: tuple[int, ...], r: int, c: int) -> bool:
    return 2 <= r and r - 2 < len(placement) and placement[r - 2] == c


def _provably_safe(rows, cols, placements) -> set:
    cells = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            if not any(_monster_at(p, r, c) for p in placements):
                cells.add((r, c))
    return cells


def _component(rows, cols, safe_cells) -> set:
    """Safe cells reachable from the first row."""
    frontier = [(1, c) for c in range(1, cols + 1)]
    seen = set(frontier)
    while frontier:
        r, c = frontier.pop()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 1 <= nr <= rows and 1 <= nc <= cols and (nr, nc) in safe_cells and (nr, nc) not in seen:
                seen.add((nr, nc))
                frontier.append((nr, nc))
    return seen


def guaranteed_failures(knowledge: TurboKnowledge) -> float:
    """Monster hits an optimal player must budget for from this knowledge.

    Returns ``math.inf`` when some consistent placement disconnects the
    last row from the first.
    """
    rows, cols = knowledge.rows, knowledge.cols
    memo: dict[frozenset, float] = {}

    def search(placements: frozenset) -> float:
        cached = memo.get(placements)
        if cached is not None:
            return cached
        safe_cells = _provably_safe(rows, cols, placements)
        component = _component(rows, cols, safe_cells)
        if any(r == rows for r, _ in component):
            memo[placements] = 0.0
            return 0.0
        probes = set()
        for r, c in component:
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if not (1 <= nr <= rows and 1 <= nc <= cols) or (nr, nc) in component:
                    continue
                hit = [p for p in placements if _monster_at(p, nr, nc)]
                if hit and len(hit) < len(placements):
                    probes.add((nr, nc))
        if not probes:
            # Every unknown frontier cell is a certain monster: walled off.
            memo[placements] = math.inf
            return math.inf
        best = math.inf
        for cell in sorted(probes):
            hit = frozenset(p for p in placements if _monster_at(p, *cell))
            miss = placements - hit
            value = max(search(miss), 1.0 + search(hit))
            best = min(best, value)
        memo[placements] = best
        return best

    return search(frozenset(knowledge.consistent_placements()))


def turbo_min_attempts(rows: int, cols: int) -> int:
    """Minimal n such that an adaptive strategy guarantees reaching the
    last row within n attempts, whatever the placement."""
    _check_dims(rows, cols)
    failures = guaranteed_failures(TurboKnowledge(rows, cols))
    if math.isinf(failures):
        raise UnwinnableError(
            f"{rows}x{cols}: some monster placement walls off the last row"
        )
    return int(failures) + 1


def turbo_game(rows: int, cols: int, end_on_collision: bool = True) -> GameSpec:
    """Simulation encoding of the walk-level game.

    Each move costs 0.01; stepping on a monster additionally costs 1 and
    increments the attempt counter (ending the episode by default, per
    the published reward table).  Reaching the last row pays 30/20/10
    when it happens on the first/second/third attempt.  Each episode
    hides a placement drawn from the environment stream.

    State: (position or None, revealed monsters, attempts_used,
    placement, done).  With a ``None`` position the legal actions choose
    a first-row start column.
    """
    _check_dims(rows, cols)
    placements = all_placements(rows, cols)

    def initial_state(rng):
        placement = placements[int(rng.random() * len(placements))]
        return (None, frozenset(), 0, placement, False)

    def legal_actions(state):
        pos, _, _, _, done = state
        if done:
            return []
        if pos is None:
            return [("start", c) for c in range(1, cols + 1)]
        r, c = pos
        moves = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            if 1 <= r + dr <= rows and 1 <= c + dc <= cols:
                moves.append(("move", dr, dc))
        return moves

    def transition(state, action, rng):
        pos, revealed, attempts, placement, _ = state
        if action[0] == "start":
            return ((1, action[1]), revealed, attempts, placement, False), 0.0
        r, c = pos
        nr, nc = r + action[1], c + action[2]
        reward = STEP_PENALTY
        if _monster_at(placement, nr, nc):
            reward += COLLISION_PENALTY
            revealed = revealed | {(nr, nc)}
            attempts += 1
            return (None, revealed, attempts, placement, end_on_collision), reward
        if nr == rows:
            if attempts < len(ATTEMPT_REWARDS):
                reward += ATTEMPT_REWARDS[attempts]
            return ((nr, nc), revealed, attempts, placement, True), reward
        return ((nr, nc), revealed, attempts, placement, False), reward

    return GameSpec(
        name=f"turbo-{rows}x{cols}",
        params={"rows": rows, "cols": cols, "end_on_collision": end_on_collision},
        initial_state=initial_state,
        legal_actions=legal_actions,
        transition=transition,
        is_terminal=lambda state: state[4],
    )
