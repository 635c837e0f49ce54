"""Exact game solvers and simulation."""

import math
from itertools import product

import numpy as np
import pytest

from quorum.errors import ConfigurationError, IntractableError
from quorum.games import (
    EXACT_GAMES,
    TurboKnowledge,
    UnwinnableError,
    all_placements,
    coinflip_game,
    coinflip_solvable,
    guaranteed_failures,
    has_zero_window,
    label_parities,
    move_masks,
    ninja_game,
    ninja_guarantee,
    random_policy,
    replay,
    scripted_policy,
    sequence_game,
    sequence_max_len,
    sequence_max_len_with_witness,
    simulate,
    turbo_game,
    turbo_min_attempts,
)
from quorum.seeds import derive_seed, rng_for


class TestCoinflip:
    @pytest.mark.parametrize("m,n,expected", [(2, 3, True), (2, 2, False), (3, 3, True), (2, 4, False)])
    def test_published_answers(self, m, n, expected):
        assert coinflip_solvable(m, n) is expected

    def test_divisibility_rule_exhaustive(self):
        for m in range(2, 9):
            for n in range(2, 9):
                if m * n <= 16:
                    assert coinflip_solvable(m, n) == (m * n % 3 == 0), (m, n)

    def test_refuses_large_boards(self):
        with pytest.raises(IntractableError):
            coinflip_solvable(5, 5)

    def test_parity_invariant_along_random_play(self):
        rng = np.random.default_rng(derive_seed(0, "coinflip-invariant"))
        for _ in range(200):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            masks = move_masks(m, n)
            state = 0
            assert len(set(label_parities(state, m, n))) == 1
            for _ in range(30):
                state ^= masks[int(rng.integers(len(masks)))]
                assert len(set(label_parities(state, m, n))) == 1

    def test_winning_sequence_rewards(self):
        # Two moves cover all six cells exactly once: bottom-left choice
        # at (0,0), top-right choice at (0,1).  Each move pays -1 and
        # reaching all-heads pays +1000.
        game = coinflip_game(2, 3)
        moves = [(0, 0, "bl"), (0, 1, "tr")]
        [trajectory] = simulate(game, scripted_policy(moves), episodes=1, seed=5)
        assert trajectory.final_state == ((1 << 6) - 1,)
        assert trajectory.total_reward == 1000 - len(moves)

    def test_simulation_determinism(self):
        game = coinflip_game(2, 3)
        a = simulate(game, random_policy, episodes=10, seed=42)
        b = simulate(game, random_policy, episodes=10, seed=42)
        assert [t.to_json() for t in a] == [t.to_json() for t in b]


class TestSequence:
    @pytest.mark.parametrize("bound,expected", [(2, 3), (3, 3), (4, 7)])
    def test_published_answers(self, bound, expected):
        assert sequence_max_len(bound) == expected

    def test_published_witness_is_valid(self):
        witness = (4, 2, 4, 1, 4, 2, 4)
        assert not has_zero_window(witness)
        assert len(witness) == sequence_max_len(4)

    def test_returned_witness_is_valid(self):
        for bound in range(2, 6):
            length, witness = sequence_max_len_with_witness(bound)
            assert len(witness) == length
            assert not has_zero_window(witness)
            assert all(1 <= a <= bound for a in witness)

    def test_power_of_two_formula(self):
        for k in (1, 2):
            assert sequence_max_len(2**k) == 2 ** (k + 1) - 1

    def test_monotone_in_bound(self):
        values = [sequence_max_len(b) for b in range(2, 9)]
        assert values == sorted(values)

    def test_refusal(self):
        with pytest.raises(IntractableError):
            sequence_max_len(9)

    def test_every_prefix_of_witness_is_zero_free(self):
        # Cross-check the incremental sum-set logic against brute force.
        _, witness = sequence_max_len_with_witness(4)
        for end in range(1, len(witness) + 1):
            assert not has_zero_window(witness[:end])

    def test_game_rewards_follow_table(self):
        game = sequence_game(2)
        [trajectory] = simulate(game, scripted_policy([2, 1, 2]), episodes=1, seed=0)
        # 2, 1, 2 is valid (no zero window): +1 per extension
        assert [r for _, _, r in trajectory.steps] == [1.0, 1.0, 1.0]
        [bad] = simulate(game, scripted_policy([1, 1]), episodes=1, seed=0)
        assert [r for _, _, r in bad.steps] == [1.0, 0.0]
        assert bad.final_state[2] is True  # violation flag


class TestNinja:
    def test_single_row(self):
        assert ninja_guarantee(1) == 1

    @pytest.mark.parametrize("n,expected", [(6, 3), (4, 3), (8, 4)])
    def test_published_answers(self, n, expected):
        assert ninja_guarantee(n) == expected

    def test_formula_range(self):
        for n in range(2, 9):
            assert ninja_guarantee(n) == 1 + int(math.log2(n))

    def test_refusal(self):
        with pytest.raises(IntractableError):
            ninja_guarantee(9)

    def test_game_counts_reds_on_path(self):
        # Fixed coloring: red at position 0 of every row; walk straight left.
        game = ninja_game(3, coloring=(0, 0, 0))
        [trajectory] = simulate(game, scripted_policy(["enter", "left", "left"]), episodes=1, seed=0)
        assert trajectory.total_reward == 3.0


class TestTurbo:
    def test_minimal_interesting_board(self):
        assert turbo_min_attempts(4, 3) == 3

    def test_all_tractable_boards_within_published_bound(self):
        values = {}
        for rows in (3, 4, 5):
            for cols in (2, 3, 4):
                if cols < rows - 2:
                    continue
                try:
                    values[(rows, cols)] = turbo_min_attempts(rows, cols)
                except UnwinnableError:
                    values[(rows, cols)] = math.inf
        finite = {k: v for k, v in values.items() if v != math.inf}
        assert all(v <= 3 for v in finite.values())
        assert values[(4, 3)] == 3
        # Boards with exactly rows-2 columns admit a diagonal wall.
        assert values[(4, 2)] == math.inf
        assert values[(5, 3)] == math.inf

    def test_non_increasing_in_cols(self):
        for rows in (3, 4, 5):
            prev = math.inf
            for cols in range(max(2, rows - 2), 5):
                try:
                    value = turbo_min_attempts(rows, cols)
                except UnwinnableError:
                    value = math.inf
                assert value <= prev
                prev = value

    def test_refuses_untractable(self):
        with pytest.raises(IntractableError):
            turbo_min_attempts(6, 4)
        with pytest.raises(ConfigurationError):
            turbo_min_attempts(2, 2)

    def test_knowledge_validation(self):
        with pytest.raises(ValueError):
            TurboKnowledge(4, 3, monsters=frozenset({(1, 1)}))  # first row safe
        with pytest.raises(ValueError):
            TurboKnowledge(4, 3, monsters=frozenset({(2, 1), (3, 1)}))  # same column
        know = TurboKnowledge(4, 3, monsters=frozenset({(2, 2)}))
        assert len(know.consistent_placements()) == 2

    def test_knowledge_search_after_reveal(self):
        # One revealed monster in the middle: the rest is 2 placements,
        # worst case loses one more attempt.
        know = TurboKnowledge(4, 3, monsters=frozenset({(2, 2)}))
        assert guaranteed_failures(know) == 1

    def test_placement_count(self):
        assert len(all_placements(4, 3)) == 6

    def test_collision_reward_and_attempt_counter(self):
        game = turbo_game(4, 3)
        rng = rng_for(99, game.name, 0, "env")
        state = game.initial_state(rng)
        placement = state[3]
        monster_col = placement[0]  # row 2 monster
        walk = [("start", monster_col), ("move", 1, 0)]  # step straight into it
        [trajectory] = simulate(game, scripted_policy(walk), episodes=1, seed=99)
        *_, (last_state, last_action, last_reward) = trajectory.steps
        assert last_reward == pytest.approx(-1.01)  # step penalty plus collision
        assert trajectory.final_state[2] == 1  # attempts_used incremented
        assert (2, monster_col) in trajectory.final_state[1]

    def test_win_rewards_follow_attempt_schedule(self):
        game = turbo_game(3, 2, end_on_collision=False)
        rng = rng_for(7, game.name, 0, "env")
        placement = game.initial_state(rng)[3]
        safe_col = 1 if placement[0] == 2 else 2
        walk = [("start", safe_col), ("move", 1, 0), ("move", 1, 0)]
        [trajectory] = simulate(game, scripted_policy(walk), episodes=1, seed=7)
        assert trajectory.total_reward == pytest.approx(30.0 - 0.02)


def _walk_level_turbo(rows, cols):
    """Independent oracle: explicit visited-cell minimax, no deduction.

    Tracks the walked-on safe cells instead of a provably-safe
    component; deduced-safe cells are crossed by stepping on them (the
    adversary has no monster option there).  Agrees with the main
    solver's reduction by construction if that reduction is sound.
    """
    from functools import lru_cache
    from itertools import permutations

    placements_all = tuple(permutations(range(1, cols + 1), rows - 2))

    def monster_at(p, r, c):
        return 2 <= r <= rows - 1 and p[r - 2] == c

    @lru_cache(maxsize=None)
    def value(visited, placements):
        cells = set(visited) | {(1, c) for c in range(1, cols + 1)}
        stack = [(1, c) for c in range(1, cols + 1)]
        component = set(stack)
        while stack:
            r, c = stack.pop()
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if (nr, nc) in cells and (nr, nc) not in component:
                    component.add((nr, nc))
                    stack.append((nr, nc))
        if any(r >= rows - 1 for r, _ in component):
            return 0.0  # stepping down into the monster-free last row wins
        best = math.inf
        for r, c in component:
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if not (1 <= nr <= rows and 1 <= nc <= cols) or (nr, nc) in component:
                    continue
                hit = tuple(p for p in placements if monster_at(p, nr, nc))
                if len(hit) == len(placements):
                    continue  # certain monster: stepping on it gains nothing
                miss = tuple(p for p in placements if not monster_at(p, nr, nc))
                outcome = value(frozenset(visited | {(nr, nc)}), miss)
                if hit:
                    outcome = max(outcome, 1.0 + value(visited, hit))
                best = min(best, outcome)
        return best

    v = value(frozenset(), placements_all)
    return math.inf if math.isinf(v) else int(v) + 1


class TestTurboDifferential:
    def test_matches_walk_level_oracle_everywhere(self):
        for rows in (3, 4, 5):
            for cols in (2, 3, 4):
                if cols < rows - 2:
                    continue
                try:
                    mine = turbo_min_attempts(rows, cols)
                except UnwinnableError:
                    mine = math.inf
                assert mine == _walk_level_turbo(rows, cols), (rows, cols)


_CHUNK = 1 << 15


def _bfs_reachable(m, n):
    """Independent oracle: visited table of a breadth-first search over
    all 2^(mn) boards from all-tails, in chunks of frontier boards."""
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


class TestCoinflipDifferential:
    def test_bfs_matches_linear_span(self):
        # The solver's GF(2) span test against a search of every board,
        # on every size it accepts.
        sizes = [(m, n) for m in range(2, 11) for n in range(2, 11) if m * n <= 20]
        assert len(sizes) == 27
        for m, n in sizes:
            assert coinflip_solvable(m, n) == bool(_bfs_reachable(m, n)[(1 << (m * n)) - 1]), (m, n)


def _best_path_reds(coloring):
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


class TestNinjaDifferential:
    def test_distinct_rows_match_every_coloring(self):
        # Independent oracle: a fresh path DP on each of the n! colorings.
        for n in range(1, 9):
            worst = min(_best_path_reds(coloring) for coloring in product(*(range(i + 1) for i in range(n))))
            assert ninja_guarantee(n) == worst, n


class TestSequenceDifferential:
    def test_matches_brute_force_enumeration(self):
        # Enumerate all sequences outright, checking windows by brute
        # force at every extension (no incremental sum-set logic).
        for bound in (2, 3):
            best = 0
            stack = [()]
            while stack:
                seq = stack.pop()
                best = max(best, len(seq))
                if len(seq) >= 2 * bound - 1:
                    continue
                for a in range(1, bound + 1):
                    candidate = seq + (a,)
                    if not has_zero_window(candidate):
                        stack.append(candidate)
            assert sequence_max_len(bound) == best, bound


class TestSimulateGeneric:
    # One small instance of each exact game's simulation encoding.
    INSTANCES = {"turbo": (4, 3), "coinflip": (2, 3), "sequence": (4,), "ninja": (6,)}

    def _game(self, name):
        exact = EXACT_GAMES[name]
        return exact.build(**dict(zip(exact.params, self.INSTANCES[name])))

    def test_illegal_action_flagged(self):
        game = coinflip_game(2, 2)
        [trajectory] = simulate(game, scripted_policy([(9, 9, "tr")]), episodes=1, seed=0)
        assert trajectory.error and "illegal action" in trajectory.error

    def test_every_exact_game_has_an_instance(self):
        assert sorted(self.INSTANCES) == sorted(EXACT_GAMES)

    @pytest.mark.parametrize("name", sorted(EXACT_GAMES))
    def test_replay_reproduces_trajectory(self, name):
        game = self._game(name)
        trajectories = simulate(game, random_policy, episodes=5, seed=3)
        for trajectory in trajectories:
            assert replay(game, trajectory).to_json() == trajectory.to_json()

    @pytest.mark.parametrize("name", sorted(EXACT_GAMES))
    def test_same_seed_same_record(self, name):
        game = self._game(name)
        a = simulate(game, random_policy, episodes=5, seed=11)
        b = simulate(self._game(name), random_policy, episodes=5, seed=11)
        assert [t.to_json() for t in a] == [t.to_json() for t in b]
