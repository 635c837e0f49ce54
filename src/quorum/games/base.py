"""Markov-game scaffolding: specs, trajectories, seeded simulation.

States and actions are plain hashable tuples so trajectories serialize
and replay exactly.  Policy randomness and environment randomness come
from separate derived streams, so replaying a trajectory's actions
reproduces it bit for bit regardless of the policy that produced it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import ConfigurationError
from ..seeds import rng_for


@dataclass(frozen=True)
class GameSpec:
    """A (state, action, reward) encoding of a combinatorics problem.

    ``transition(state, action, rng) -> (next_state, reward)``; the rng
    argument covers hidden-information games and is ignored by
    deterministic ones.  ``initial_state(rng)`` may randomize hidden
    state (e.g. a monster placement).
    """

    name: str
    params: dict
    initial_state: Callable
    legal_actions: Callable
    transition: Callable
    is_terminal: Callable
    max_steps: int = 2000


@dataclass(frozen=True)
class Trajectory:
    game: str
    seed: int
    episode: int
    steps: tuple[tuple, ...]  # (state, action, reward) triples
    final_state: tuple
    error: Optional[str] = None

    @property
    def total_reward(self) -> float:
        return sum(r for _, _, r in self.steps)

    def to_json(self) -> str:
        def enc(x):
            if isinstance(x, frozenset):
                return {"frozenset": sorted(map(enc, x))}
            if isinstance(x, tuple):
                return list(map(enc, x))
            return x

        return json.dumps(
            {
                "game": self.game,
                "seed": self.seed,
                "episode": self.episode,
                "steps": [[enc(s), enc(a), r] for s, a, r in self.steps],
                "final_state": enc(self.final_state),
                "error": self.error,
            },
            sort_keys=True,
        )


Policy = Callable[[tuple, Sequence, random.Random], object]


def random_policy(state, actions, rng: random.Random):
    return actions[int(rng.random() * len(actions))]


def scripted_policy(moves: Sequence) -> Policy:
    """Play a fixed action list, then fall back to the first legal action.

    The cursor is shared across calls, so build a fresh policy per
    single-episode ``simulate`` run.
    """
    moves = list(moves)
    cursor = [0]

    def policy(state, actions, rng):
        i = cursor[0]
        cursor[0] += 1
        return moves[i] if i < len(moves) else actions[0]

    return policy


def simulate(game: GameSpec, policy: Policy, episodes: int, seed: int) -> list[Trajectory]:
    """Run seeded, replayable episodes of a game under a policy.

    A policy returning an illegal action ends that trajectory with
    an error flag instead of raising.
    """
    if episodes < 1:
        raise ConfigurationError("episodes must be >= 1")
    trajectories = []
    for ep in range(episodes):
        env_rng = rng_for(seed, game.name, ep, "env")
        policy_rng = rng_for(seed, game.name, ep, "policy")
        state = game.initial_state(env_rng)
        steps: list[tuple] = []
        error = None
        for _ in range(game.max_steps):
            if game.is_terminal(state):
                break
            actions = list(game.legal_actions(state))
            if not actions:
                break
            action = policy(state, actions, policy_rng)
            if action not in actions:
                error = f"illegal action {action!r}"
                break
            state_next, reward = game.transition(state, action, env_rng)
            steps.append((state, action, reward))
            state = state_next
        trajectories.append(Trajectory(game.name, seed, ep, tuple(steps), state, error))
    return trajectories


def replay(game: GameSpec, trajectory: Trajectory) -> Trajectory:
    """Re-run a trajectory's actions from the initial state."""
    env_rng = rng_for(trajectory.seed, game.name, trajectory.episode, "env")
    state = game.initial_state(env_rng)
    steps = []
    for recorded_state, action, _ in trajectory.steps:
        state_next, reward = game.transition(state, action, env_rng)
        steps.append((state, action, reward))
        state = state_next
    return Trajectory(game.name, trajectory.seed, trajectory.episode, tuple(steps), state, trajectory.error)
