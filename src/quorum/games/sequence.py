"""Longest sequence with no zero-sum signed consecutive subsequence.

Terms are positive integers up to ``bound``.  The search keeps, per
position, the set of sums achievable (up to sign) over consecutive
subsequences ending there: appending ``a`` after a position with sum
set P creates a zero window exactly when ``a`` is in P, and the new set
is {a} | {p+a} | {|p-a|}.

A pigeonhole argument caps the answer at 2*bound - 1 for every bound:
choose signs greedily so partial sums stay in [-bound+1, bound]; with
2*bound reachable values, any sequence of length >= 2*bound repeats a
partial sum, and the window between the repeats sums to zero.  The
search therefore stops early when it constructs a witness of that
length; otherwise it is exhaustive.
"""

from __future__ import annotations

from itertools import product

from ..errors import ConfigurationError, IntractableError
from .base import GameSpec

DFS_BOUND_LIMIT = 8


def sequence_max_len_with_witness(bound: int) -> tuple[int, tuple[int, ...]]:
    if bound < 1:
        raise ConfigurationError("bound must be >= 1")
    if bound > DFS_BOUND_LIMIT:
        raise IntractableError(f"exhaustive search is limited to bound <= {DFS_BOUND_LIMIT}")
    cap = 2 * bound - 1
    best_len = 0
    best_seq: tuple[int, ...] = ()
    seq: list[int] = []

    def dfs(sums: frozenset) -> bool:
        nonlocal best_len, best_seq
        if len(seq) > best_len:
            best_len = len(seq)
            best_seq = tuple(seq)
            if best_len >= cap:
                return True
        for a in range(bound, 0, -1):
            if a in sums:
                continue
            nxt = frozenset({a} | {p + a for p in sums} | {abs(p - a) for p in sums})
            seq.append(a)
            if dfs(nxt):
                return True
            seq.pop()
        return False

    dfs(frozenset())
    return best_len, best_seq


def sequence_max_len(bound: int) -> int:
    return sequence_max_len_with_witness(bound)[0]


def has_zero_window(seq) -> bool:
    """Brute-force oracle: some consecutive window admits signs summing to 0."""
    n = len(seq)
    for i in range(n):
        for j in range(i, n):
            window = seq[i:j + 1]
            for signs in product((1, -1), repeat=len(window)):
                if sum(s * a for s, a in zip(signs, window)) == 0:
                    return True
    return False


def sequence_game(bound: int) -> GameSpec:
    """Simulation encoding: +1 per valid extension, 0 and stop on a violation."""
    if bound < 1:
        raise ConfigurationError("bound must be >= 1")
    cap = 2 * bound - 1

    def transition(state, action, rng):
        seq, sums, violated = state
        if action in sums:
            return ((seq + (action,), sums, True), 0.0)
        nxt = frozenset({action} | {p + action for p in sums} | {abs(p - action) for p in sums})
        return ((seq + (action,), nxt, False), 1.0)

    return GameSpec(
        name=f"sequence-{bound}",
        params={"bound": bound},
        initial_state=lambda rng: ((), frozenset(), False),
        legal_actions=lambda state: list(range(1, bound + 1)),
        transition=transition,
        is_terminal=lambda state: state[2] or len(state[0]) >= cap,
    )
