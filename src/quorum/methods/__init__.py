from .combinators import (
    MethodResult,
    MethodTrace,
    best_of_n,
    consensus,
    leap,
    mcts_resample,
    mixture_of_agents,
    modal_answer,
    plan_search,
    prover_verifier,
    round_trip,
    self_consistency,
    zero_shot,
)
from .config import ConsensusReport, MethodConfig, Principles
from .dispatch import METHODS, run_method

__all__ = [
    "MethodResult",
    "MethodTrace",
    "best_of_n",
    "consensus",
    "leap",
    "mcts_resample",
    "mixture_of_agents",
    "modal_answer",
    "plan_search",
    "prover_verifier",
    "round_trip",
    "self_consistency",
    "zero_shot",
    "METHODS",
    "ConsensusReport",
    "MethodConfig",
    "Principles",
    "run_method",
]
