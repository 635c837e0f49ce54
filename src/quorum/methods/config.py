"""The method table, a run config's ``methods`` entries, and ``run_method``,
which runs one cell for ``quorum eval`` and the graph ``run_method`` op.

Method-specific knobs live in ``params``: ``rto`` takes ``forward_prompt``
/ ``backward_prompt``, ``leap`` takes ``examples`` as ``[input, answer]``
pairs, and ``extra_solver_ids`` / ``verifier_solver_id`` name solvers."""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..core.model import Task, Verdict
from ..errors import ConfigurationError, json_object
from . import combinators as m

# method id -> call(config, solver, task, verifier, seed).  Each call looks
# its function up on the combinators module when it runs, so a wrapper set
# there later is the one called.
METHODS: dict[str, Callable[..., m.MethodResult]] = {
    "zero_shot": lambda c, solver, task, verifier, seed: m.zero_shot(solver, task, seed),
    "best_of_n": lambda c, solver, task, verifier, seed: m.best_of_n(solver, verifier, task, c.n, seed),
    "self_consistency": lambda c, solver, task, verifier, seed: m.self_consistency(solver, task, c.n, seed),
    "mixture_of_agents": lambda c, solver, task, verifier, seed: m.mixture_of_agents(
        [solver, *c.extra_solvers], list(c.weights) if c.weights is not None else None, task, seed
    ),
    "mcts": lambda c, solver, task, verifier, seed: m.mcts_resample(solver, verifier, task, c.n, seed),
    "rto": lambda c, solver, task, verifier, seed: m.round_trip(
        solver, c.params.get("forward_prompt", "{input}"), c.params.get("backward_prompt", "{output}"),
        task, seed, n=c.n,
    ),
    "prover_verifier": lambda c, solver, task, verifier, seed: m.prover_verifier(
        solver, c.verifier_solver, task, c.rounds, seed
    ),
    "plan_search": lambda c, solver, task, verifier, seed: m.plan_search(solver, task, c.n, seed, verifier=verifier),
    "leap": lambda c, solver, task, verifier, seed: m.leap(
        solver, [tuple(pair) for pair in c.params.get("examples", [])], task, seed
    ),
}


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
        if self.method_id not in METHODS:
            raise ConfigurationError(f"unknown method {self.method_id!r}")
        for name in ("n", "rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        if self.method_id == "prover_verifier" and self.verifier_solver is None:
            raise ConfigurationError("prover_verifier needs a 'verifier_solver_id' param naming its judge")
        if self.method_id == "rto":
            for key, field_name in (("forward_prompt", "input"), ("backward_prompt", "output")):
                prompt = self.params.get(key, f"{{{field_name}}}")
                if _template_fields(prompt) != {field_name}:
                    raise ConfigurationError(f"rto {key} must be a string whose one field is "
                                             f"{{{field_name}}}, got {prompt!r}")
        if self.method_id == "leap":
            examples = self.params.get("examples", [])
            if not isinstance(examples, list) or not all(
                isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
                for pair in examples
            ):
                raise ConfigurationError(f"leap examples must be a list of [input, answer] string pairs, "
                                         f"got {examples!r}")
        if self.weights is not None:
            if not all(isinstance(w, (int, float)) and not isinstance(w, bool) and w >= 0 for w in self.weights):
                raise ConfigurationError(f"weights must be non-negative numbers, got {list(self.weights)!r}")
            total = sum(self.weights)
            if abs(total - 1.0) > m.WEIGHT_TOL:
                raise ConfigurationError(f"weights sum to {total}, not 1")
            agents = 1 + len(self.extra_solvers)  # the cell's solver, then the extra ones
            if self.method_id == "mixture_of_agents" and len(self.weights) != agents:
                raise ConfigurationError(f"mixture_of_agents has {agents} agent(s) but {len(self.weights)} weights")

    @classmethod
    def from_dict(cls, entry: dict, solvers: Mapping) -> "MethodConfig":
        """Parse one ``methods`` entry of a run config, looking up the solver
        ids in its ``params`` (``extra_solver_ids``, ``verifier_solver_id``)."""
        if "method_id" not in json_object(entry, "a method entry"):
            raise ConfigurationError("method entry needs a 'method_id'")
        unknown = sorted(set(entry) - {"method_id", "n", "rounds", "weights", "params"})
        if unknown:
            raise ConfigurationError(f"method {entry['method_id']!r}: unknown key(s) {unknown}")
        params = json_object(entry.get("params", {}), f"method {entry['method_id']!r} params")
        weights = entry.get("weights")
        if weights is not None and not isinstance(weights, list):
            raise ConfigurationError(f"method {entry['method_id']!r}: weights must be a list, got {weights!r}")

        def solver(solver_id):
            if solver_id not in solvers:
                raise ConfigurationError(f"method {entry['method_id']!r}: no solver {solver_id!r}")
            return solvers[solver_id]

        verifier_id = params.get("verifier_solver_id")
        return cls(
            method_id=entry["method_id"],
            n=entry.get("n", 1),
            rounds=entry.get("rounds", 1),
            weights=tuple(weights) if weights else None,
            params=params,
            extra_solvers=tuple(solver(s) for s in params.get("extra_solver_ids", [])),
            verifier_solver=None if verifier_id is None else solver(verifier_id),
        )


def _template_fields(prompt) -> set:
    """The field names of a ``str.format`` template (empty for anything else)."""
    try:
        return {name for _, name, _, _ in string.Formatter().parse(prompt) if name is not None}
    except (TypeError, ValueError):
        return set()


def run_method(config: MethodConfig, solver, task: Task, *, seed: int) -> tuple[m.MethodResult, Verdict]:
    """Run one cell: the method samples, checking each sample with ``verify``
    when the task has a check, and the verdict of its pick comes back with it."""
    from ..core.verify import verify  # looked up per call, so a wrapper set on that module is the one called

    result = METHODS[config.method_id](config, solver, task, verify if task.check is not None else None, seed)
    return result, verify(task, result.candidate)
