"""Method configuration and report types."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Optional

from ..core.answers import AnswerValue
from ..errors import ConfigurationError

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class MethodConfig:
    method_id: str
    n: int = 1  # samples / rollouts / plans / retries, per method
    weights: Optional[tuple[float, ...]] = None
    rounds: int = 1
    params: dict = field(default_factory=dict)
    extra_solvers: tuple = ()  # mixture agents beside the cell's solver
    verifier_solver: Optional[Any] = None  # the judge of prover_verifier

    def __post_init__(self):
        from .dispatch import METHODS  # local import: dispatch imports this module

        if self.method_id not in METHODS:
            raise ConfigurationError(f"unknown method {self.method_id!r}")
        for name in ("n", "rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.weights is not None:
            if any(w < 0 for w in self.weights):
                raise ConfigurationError("weights must be non-negative")
            total = sum(self.weights)
            if abs(total - 1.0) > WEIGHT_TOL:
                raise ConfigurationError(f"weights sum to {total}, not 1")

    @classmethod
    def from_dict(cls, entry: dict, solvers: Mapping) -> "MethodConfig":
        """Parse one ``methods`` entry of a run config, looking up the solver
        ids in its ``params`` (``extra_solver_ids``, ``verifier_solver_id``)."""
        if "method_id" not in entry:
            raise ConfigurationError("method entry needs a 'method_id'")
        params = entry.get("params", {})

        def solver(solver_id):
            if solver_id not in solvers:
                raise ConfigurationError(f"method {entry['method_id']!r}: no solver {solver_id!r}")
            return solvers[solver_id]

        verifier_id = params.get("verifier_solver_id")
        return cls(
            method_id=entry["method_id"],
            n=entry.get("n", 1),
            rounds=entry.get("rounds", 1),
            weights=tuple(entry["weights"]) if entry.get("weights") else None,
            params=params,
            extra_solvers=tuple(solver(s) for s in params.get("extra_solver_ids", [])),
            verifier_solver=None if verifier_id is None else solver(verifier_id),
        )


@dataclass(frozen=True)
class Principles:
    """Rules distilled from worked examples, used to steer a solver."""

    items: tuple[str, ...]
    source_examples: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.source_examples and not self.items:
            raise ConfigurationError("principles derived from examples must be non-empty")

    def render(self) -> str:
        return "\n".join(f"- {item}" for item in self.items)


@dataclass(frozen=True)
class ConsensusReport:
    """Agreement of a candidate pool with its modal answer."""

    modal_answer: AnswerValue
    c: Fraction
    diversity: Fraction

    def __post_init__(self):
        if not 0 <= self.c <= 1:
            raise ValueError(f"consensus {self.c} outside [0,1]")
        if self.diversity != 1 - self.c:
            raise ValueError("diversity must equal 1 - c exactly")
