"""The 2x2 coin-flipping puzzle on an m x n board.

All coins start tails.  A move picks a 2x2 square, flips its top-left
and bottom-right coins, plus one of the top-right / bottom-left corner
coins.  The question is whether all-heads is reachable; exhaustive BFS
over the 2^(mn) board states answers it for m*n <= 20.

Every move flips exactly one coin on each of the three diagonals
labeled (i+j) mod 3, so the head counts per label class keep equal
parities; that invariant is what makes boards with 3 not dividing m*n
unsolvable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, IntractableError
from .base import GameSpec

BFS_CELL_LIMIT = 20

WIN_REWARD = 1000  # reaching all-heads
MOVE_COST = -1  # per move


def _check_dims(m: int, n: int):
    if m < 2 or n < 2:
        raise ConfigurationError("board needs m, n >= 2")
    if m * n > BFS_CELL_LIMIT:
        raise IntractableError(
            f"{m}x{n} board has 2^{m * n} states; exhaustive search is limited to m*n <= {BFS_CELL_LIMIT}"
        )


def move_masks(m: int, n: int) -> list[int]:
    """XOR masks of all legal moves; bit (i, j) is i*n + j."""
    masks = []
    for i in range(m - 1):
        for j in range(n - 1):
            base = (1 << (i * n + j)) | (1 << ((i + 1) * n + (j + 1)))
            masks.append(base | (1 << (i * n + (j + 1))))  # top-right
            masks.append(base | (1 << ((i + 1) * n + j)))  # bottom-left
    return masks


_CHUNK = 1 << 15


def _bfs_reachable(m: int, n: int) -> np.ndarray:
    """Visited table of the BFS from the all-tails state."""
    masks = np.array(move_masks(m, n), dtype=np.int64)
    visited = np.zeros(1 << (m * n), dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        new_parts = []
        for start in range(0, frontier.size, _CHUNK):
            chunk = frontier[start:start + _CHUNK]
            cand = np.unique(chunk[:, None] ^ masks[None, :])
            cand = cand[~visited[cand]]
            visited[cand] = True
            new_parts.append(cand)
        frontier = np.concatenate(new_parts) if new_parts else np.array([], dtype=np.int64)
    return visited


def coinflip_solvable(m: int, n: int) -> bool:
    """True iff all-heads is reachable from all-tails."""
    _check_dims(m, n)
    return bool(_bfs_reachable(m, n)[(1 << (m * n)) - 1])


def label_parities(state: int, m: int, n: int) -> tuple[int, int, int]:
    """Parity of the head count on each (i+j) mod 3 label class."""
    counts = [0, 0, 0]
    for i in range(m):
        for j in range(n):
            if state >> (i * n + j) & 1:
                counts[(i + j) % 3] += 1
    return (counts[0] % 2, counts[1] % 2, counts[2] % 2)


def coinflip_game(m: int, n: int) -> GameSpec:
    """Simulation encoding: -1 per move, +1000 on reaching all-heads."""
    _check_dims(m, n)
    goal = (1 << (m * n)) - 1
    moves = []
    for i in range(m - 1):
        for j in range(n - 1):
            moves.append((i, j, "tr"))
            moves.append((i, j, "bl"))
    mask_of = dict(zip(moves, move_masks(m, n)))

    def transition(state, action, rng):
        nxt = state[0] ^ mask_of[action]
        reward = MOVE_COST + (WIN_REWARD if nxt == goal else 0)
        return ((nxt,), reward)

    return GameSpec(
        name=f"coinflip-{m}x{n}",
        params={"m": m, "n": n},
        initial_state=lambda rng: (0,),
        legal_actions=lambda state: moves,
        transition=transition,
        is_terminal=lambda state: state[0] == goal,
        enumerable=True,
    )
