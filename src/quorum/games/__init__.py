from .base import GameSpec, Trajectory, random_policy, replay, scripted_policy, simulate
from .catalog import EXACT_GAMES, check_game_task, exact_game, exact_value
from .coinflip import coinflip_game, coinflip_solvable, label_parities, move_masks
from .ninja import ninja_game, ninja_guarantee
from .sequence import has_zero_window, sequence_game, sequence_max_len, sequence_max_len_with_witness
from .turbo import (
    TurboKnowledge,
    UnwinnableError,
    all_placements,
    guaranteed_failures,
    turbo_game,
    turbo_min_attempts,
)

__all__ = [
    "GameSpec",
    "Trajectory",
    "random_policy",
    "replay",
    "scripted_policy",
    "simulate",
    "EXACT_GAMES",
    "check_game_task",
    "exact_game",
    "exact_value",
    "coinflip_game",
    "coinflip_solvable",
    "label_parities",
    "move_masks",
    "ninja_game",
    "ninja_guarantee",
    "has_zero_window",
    "sequence_game",
    "sequence_max_len",
    "sequence_max_len_with_witness",
    "TurboKnowledge",
    "UnwinnableError",
    "all_placements",
    "guaranteed_failures",
    "turbo_game",
    "turbo_min_attempts",
]
