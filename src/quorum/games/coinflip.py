"""The 2x2 coin-flipping puzzle on an m x n board.

All coins start tails.  A move picks a 2x2 square, flips its top-left
and bottom-right coins, plus one of the top-right / bottom-left corner
coins.  The question is whether all-heads is reachable.  Every move XORs
a fixed mask into the board, so the boards reachable from all-tails are
exactly the GF(2) span of the move masks; Gaussian elimination on those
masks decides whether the all-ones board lies in it.  Boards are limited
to m*n <= 20.

Every move flips exactly one coin on each of the three diagonals
labeled (i+j) mod 3, so the head counts per label class keep equal
parities; that invariant is what makes boards with 3 not dividing m*n
unsolvable.
"""

from __future__ import annotations

from ..errors import ConfigurationError, IntractableError
from .base import GameSpec

CELL_LIMIT = 20

WIN_REWARD = 1000  # reaching all-heads
MOVE_COST = -1  # per move


def _check_dims(m: int, n: int):
    if m < 2 or n < 2:
        raise ConfigurationError("board needs m, n >= 2")
    if m * n > CELL_LIMIT:
        raise IntractableError(f"{m}x{n} board has {m * n} cells; the solver is limited to m*n <= {CELL_LIMIT}")


def move_masks(m: int, n: int) -> list[int]:
    """XOR masks of all legal moves; bit (i, j) is i*n + j."""
    masks = []
    for i in range(m - 1):
        for j in range(n - 1):
            base = (1 << (i * n + j)) | (1 << ((i + 1) * n + (j + 1)))
            masks.append(base | (1 << (i * n + (j + 1))))  # top-right
            masks.append(base | (1 << ((i + 1) * n + j)))  # bottom-left
    return masks


def coinflip_solvable(m: int, n: int) -> bool:
    """True iff all-heads is reachable from all-tails."""
    _check_dims(m, n)
    basis: list[int] = []  # distinct leading bits, largest first
    for mask in move_masks(m, n):
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
    goal = (1 << (m * n)) - 1
    for b in basis:
        goal = min(goal, goal ^ b)
    return goal == 0


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
    )
