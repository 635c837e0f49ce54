"""Game registry: exact solvers plus simulation-only encodings.

Four problems have exact solvers (the snail board, the coin-flipping
board, the signed-sum sequence, the triangle walk).  The remaining
encodings ship as playable desk-scale games for simulation only; their
reward constants follow the published tables.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from ..errors import ConfigurationError
from .base import GameSpec
from .coinflip import coinflip_game, coinflip_solvable
from .ninja import ninja_game, ninja_guarantee
from .sequence import sequence_game, sequence_max_len
from .turbo import turbo_game, turbo_min_attempts


class ExactGame(NamedTuple):
    """``solve(*params)`` is the game's value; tasks answer it as
    ``answer_kind`` (a boolean as text) and ``quorum game`` prints it as
    ``label``."""

    params: tuple[str, ...]
    solve: Callable
    answer_kind: str
    label: str


EXACT_GAMES = {
    "turbo": ExactGame(("rows", "cols"), turbo_min_attempts, "integer", "n"),
    "coinflip": ExactGame(("m", "n"), coinflip_solvable, "text", "solvable"),
    "sequence": ExactGame(("bound",), sequence_max_len, "integer", "L"),
    "ninja": ExactGame(("n",), ninja_guarantee, "integer", "k"),
}


def exact_game(name: str) -> ExactGame:
    if not isinstance(name, str) or name not in EXACT_GAMES:
        raise ConfigurationError(f"no exact solver for game {name!r}; known: {', '.join(sorted(EXACT_GAMES))}")
    return EXACT_GAMES[name]


def exact_value(name: str, **params):
    """Closed-form answer computed by the exact solver for one game."""
    game = exact_game(name)
    return game.solve(*(params[p] for p in game.params))


def check_game_task(params: dict, answer_kind: str) -> None:
    """Raise ConfigurationError unless ``params`` name an exact ``game``,
    exactly its parameters, and the answer kind it is checked as."""
    game = exact_game(params.get("game"))
    given = sorted(set(params) - {"game"})
    if given != sorted(game.params):
        raise ConfigurationError(f"game {params['game']!r} takes {list(game.params)}, got {given}")
    if answer_kind != game.answer_kind:
        raise ConfigurationError(f"game {params['game']!r} is answered as {game.answer_kind}, not {answer_kind}")


def set_cover_game(elements: int = 4, sets: int = 4) -> GameSpec:
    """Membership assignment with a common-element constraint.

    Assign each element (in order) to a subset of the sets; every set
    intersection must stay extendable to non-empty.  Each assignment
    scores +1 while a common element exists among assigned ones, -1
    otherwise; finishing pays +10 minus the count of elements lying in
    at least half of the sets (heavy elements are what the underlying
    problem minimizes).
    """
    if elements < 1 or sets < 1:
        raise ConfigurationError("need elements >= 1 and sets >= 1")
    full = (1 << sets) - 1

    def transition(state, action, rng):
        assigned = state[0] + (action,)
        done = len(assigned) == elements
        common = full
        for mask in assigned:
            common &= mask
        reward = 1.0 if common else -1.0
        if done:
            heavy = sum(1 for mask in assigned if bin(mask).count("1") * 2 >= sets)
            reward += 10.0 - heavy
        return (assigned,), reward

    return GameSpec(
        name=f"set-cover-{elements}x{sets}",
        params={"elements": elements, "sets": sets},
        initial_state=lambda rng: ((),),
        legal_actions=lambda state: list(range(1, full + 1)),
        transition=transition,
        is_terminal=lambda state: len(state[0]) == elements,
        enumerable=True,
        terminates=True,
    )


def necklace_game(m: int = 2, n: int = 3, max_flips: int = 12) -> GameSpec:
    """Flip beads on a cyclic mn-bead necklace until every cut into m
    blocks of n consecutive beads has pairwise distinct red counts.

    Flips cost 0.1 each; success pays +100, running out of flips -100.
    """
    if m < 2 or n < 1:
        raise ConfigurationError("need m >= 2 and n >= 1")
    size = m * n

    def blocks_distinct(beads) -> bool:
        for offset in range(size):
            counts = []
            for b in range(m):
                start = (offset + b * n) % size
                cells = [beads[(start + i) % size] for i in range(n)]
                counts.append(sum(cells))
            if len(set(counts)) != m:
                return False
        return True

    def transition(state, action, rng):
        beads, flips, _ = state
        beads = beads[:action] + (1 - beads[action],) + beads[action + 1:]
        flips += 1
        reward = -0.1
        if blocks_distinct(beads):
            return (beads, flips, "won"), reward + 100.0
        if flips >= max_flips:
            return (beads, flips, "lost"), reward - 100.0
        return (beads, flips, ""), reward

    return GameSpec(
        name=f"necklace-{m}x{n}",
        params={"m": m, "n": n, "max_flips": max_flips},
        initial_state=lambda rng: ((0,) * size, 0, ""),
        legal_actions=lambda state: list(range(size)),
        transition=transition,
        is_terminal=lambda state: state[2] != "",
        enumerable=True,
        terminates=True,
    )


def strip_cut_game(n: int = 3) -> GameSpec:
    """Cut a 1..n^2 strip, then place the pieces in any order into an
    n x n grid (row-major); cell (r, c) wants a value congruent to
    r + c - 1 mod n.

    Each cut costs 1 and the first placement freezes the cut set;
    filling the grid with every cell congruence satisfied pays +1000.
    More cuts buy more placement freedom, so the tension is cut count
    against feasibility.
    """
    if n < 2:
        raise ConfigurationError("need n >= 2")
    total = n * n

    def pieces_of(cuts):
        bounds = [0, *sorted(cuts), total]
        return [tuple(range(a + 1, b + 1)) for a, b in zip(bounds, bounds[1:])]

    def legal_actions(state):
        cuts, order, cutting = state
        pieces = pieces_of(cuts)
        remaining = [("place", k) for k in range(len(pieces)) if k not in order]
        if cutting:
            return [("cut", p) for p in range(1, total) if p not in cuts] + remaining
        return remaining

    def transition(state, action, rng):
        cuts, order, cutting = state
        if action[0] == "cut":
            return (frozenset(cuts | {action[1]}), order, True), -1.0
        order = order + (action[1],)
        pieces = pieces_of(cuts)
        if len(order) < len(pieces):
            return (cuts, order, False), 0.0
        laid = [v for k in order for v in pieces[k]]
        ok = all((v - (i // n + i % n + 1)) % n == 0 for i, v in enumerate(laid))
        return (cuts, order, False), 1000.0 if ok else 0.0

    def is_terminal(state):
        cuts, order, _ = state
        return len(order) == len(pieces_of(cuts))

    return GameSpec(
        name=f"strip-cut-{n}",
        params={"n": n},
        initial_state=lambda rng: (frozenset(), (), True),
        legal_actions=legal_actions,
        transition=transition,
        is_terminal=is_terminal,
        enumerable=True,
        terminates=True,
    )


def chest_game(chests: int = 4, horizon: int = 30) -> GameSpec:
    """Add gems to unlocked chests while an adversarial fairy locks one
    chest after each turn (or unlocks everything when one remains).

    Reward each turn is minus the maximum pairwise gem difference; the
    simulation fairy plays uniformly from the environment stream.
    """
    if chests < 2:
        raise ConfigurationError("need chests >= 2")

    def transition(state, action, rng):
        gems, locked, turn = state
        gems = gems[:action] + (gems[action] + 1,) + gems[action + 1:]
        unlocked = [i for i in range(chests) if not (locked >> i) & 1]
        if len(unlocked) > 1:
            pick = unlocked[int(rng.integers(len(unlocked)))]
            locked |= 1 << pick
        else:
            locked = 0
        reward = -float(max(gems) - min(gems))
        return (gems, locked, turn + 1), reward

    return GameSpec(
        name=f"chests-{chests}",
        params={"chests": chests, "horizon": horizon},
        initial_state=lambda rng: ((0,) * chests, 0, 0),
        legal_actions=lambda state: [i for i in range(chests) if not (state[1] >> i) & 1],
        transition=transition,
        is_terminal=lambda state: state[2] >= horizon,
        enumerable=False,
        terminates=True,
        max_steps=horizon,
    )


def path_partition_game(n: int = 3) -> GameSpec:
    """Partition an n x n grid into diagonal staircase paths.

    Cells arrive in column-major order; each is attached to an existing
    path whose head sits diagonally behind it, or starts a new path at a
    cost of 1.  Paths step to (r+1, c+1) or (r-1, c+1) only.
    """
    if n < 1:
        raise ConfigurationError("need n >= 1")
    order = [(r, c) for c in range(n) for r in range(n)]

    def legal_actions(state):
        heads, idx = state
        if idx >= len(order):
            return []
        r, c = order[idx]
        actions = ["new"]
        for pid, (hr, hc) in enumerate(heads):
            if hc == c - 1 and abs(hr - r) == 1:
                actions.append(pid)
        return actions

    def transition(state, action, rng):
        heads, idx = state
        r, c = order[idx]
        if action == "new":
            return (heads + ((r, c),), idx + 1), -1.0
        heads = heads[:action] + ((r, c),) + heads[action + 1:]
        return (heads, idx + 1), 0.0

    return GameSpec(
        name=f"path-partition-{n}",
        params={"n": n},
        initial_state=lambda rng: ((), 0),
        legal_actions=legal_actions,
        transition=transition,
        is_terminal=lambda state: state[1] >= len(order),
        enumerable=True,
        terminates=True,
    )


def edge_coloring_game(islands: int = 4, companies: int = 2) -> GameSpec:
    """Color the complete graph's edges with companies, one per step;
    terminal reward +1 when removing any single company keeps the graph
    connected, -1 otherwise.
    """
    if islands < 3 or companies < 1:
        raise ConfigurationError("need islands >= 3 and companies >= 1")
    edges = list(combinations(range(islands), 2))

    def connected_without(colors, removed) -> bool:
        adj = {v: set() for v in range(islands)}
        for (a, b), col in zip(edges, colors):
            if col != removed:
                adj[a].add(b)
                adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == islands

    def transition(state, action, rng):
        colors = state[0] + (action,)
        if len(colors) < len(edges):
            return (colors,), 0.0
        ok = all(connected_without(colors, comp) for comp in range(companies))
        return (colors,), 1.0 if ok else -1.0

    return GameSpec(
        name=f"edge-coloring-{islands}x{companies}",
        params={"islands": islands, "companies": companies},
        initial_state=lambda rng: ((),),
        legal_actions=lambda state: list(range(companies)),
        transition=transition,
        is_terminal=lambda state: len(state[0]) >= len(edges),
        enumerable=True,
        terminates=True,
    )


GAME_BUILDERS = {
    "turbo": turbo_game,
    "coinflip": coinflip_game,
    "sequence": sequence_game,
    "ninja": ninja_game,
    "set-cover": set_cover_game,
    "necklace": necklace_game,
    "strip-cut": strip_cut_game,
    "chests": chest_game,
    "path-partition": path_partition_game,
    "edge-coloring": edge_coloring_game,
}


def build_game(name: str, **params) -> GameSpec:
    if name not in GAME_BUILDERS:
        raise ConfigurationError(f"unknown game {name!r}; known: {sorted(GAME_BUILDERS)}")
    return GAME_BUILDERS[name](**params)
