"""Game registry: the four games with exact solvers.

``turbo`` (the snail board), ``coinflip`` (the coin-flipping board),
``sequence`` (the signed-sum sequence) and ``ninja`` (the triangle
walk) each pair an exact solver with a simulation encoding; their
reward constants follow the published tables.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..errors import ConfigurationError
from .base import GameSpec
from .coinflip import coinflip_game, coinflip_solvable
from .ninja import ninja_game, ninja_guarantee
from .sequence import sequence_game, sequence_max_len
from .turbo import turbo_game, turbo_min_attempts


class ExactGame(NamedTuple):
    """``solve(*params)`` is the game's value and ``build(**params)`` its
    simulation encoding; tasks answer the value as ``answer_kind`` (a
    boolean as text) and ``quorum game`` prints it as ``label``."""

    params: tuple[str, ...]
    solve: Callable
    build: Callable[..., GameSpec]
    answer_kind: str
    label: str


EXACT_GAMES = {
    "turbo": ExactGame(("rows", "cols"), turbo_min_attempts, turbo_game, "integer", "n"),
    "coinflip": ExactGame(("m", "n"), coinflip_solvable, coinflip_game, "text", "solvable"),
    "sequence": ExactGame(("bound",), sequence_max_len, sequence_game, "integer", "L"),
    "ninja": ExactGame(("n",), ninja_guarantee, ninja_game, "integer", "k"),
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
