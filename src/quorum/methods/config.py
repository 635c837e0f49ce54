"""The method table, a run config's ``methods`` entries, and ``run_method``,
which runs one cell for ``quorum eval`` and the graph ``run_method`` op.

Method-specific knobs live in ``params``: ``rto`` takes ``forward_prompt``
/ ``backward_prompt``, ``leap`` takes ``examples`` as ``[input, answer]``
pairs, and ``extra_solver_ids`` / ``verifier_solver_id`` name solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping, NamedTuple, Optional

from ..core.model import Task, Verdict
from ..errors import ConfigurationError, integer, json_object, list_of, number, string
from . import combinators as m


class Method(NamedTuple):
    """``call(config, solver, task, verifier, seed)`` runs a cell, looking its function up on the
    combinators module then.  ``keys`` and ``params`` are all that a ``methods`` entry may set."""

    call: Callable[..., m.MethodResult]
    keys: tuple[str, ...] = ()
    params: tuple[str, ...] = ()


METHODS: dict[str, Method] = {
    "zero_shot": Method(lambda c, solver, task, verifier, seed: m.zero_shot(solver, task, seed)),
    "best_of_n": Method(lambda c, solver, task, verifier, seed: m.best_of_n(solver, verifier, task, c.n, seed),
                        ("n",)),
    "self_consistency": Method(lambda c, solver, task, verifier, seed: m.self_consistency(solver, task, c.n, seed),
                               ("n",)),
    "mixture_of_agents": Method(lambda c, solver, task, verifier, seed: m.mixture_of_agents(
        [solver, *c.extra_solvers], None if c.weights is None else list(c.weights), task, seed
    ), ("weights",), ("extra_solver_ids",)),
    "mcts": Method(lambda c, solver, task, verifier, seed: m.mcts_resample(solver, verifier, task, c.n, seed),
                   ("n",)),
    "rto": Method(lambda c, solver, task, verifier, seed: m.round_trip(
        solver, c.params.get("forward_prompt", "{input}"), c.params.get("backward_prompt", "{output}"),
        task, seed, n=c.n,
    ), ("n",), ("forward_prompt", "backward_prompt")),
    "prover_verifier": Method(lambda c, solver, task, verifier, seed: m.prover_verifier(
        solver, c.verifier_solver, task, c.rounds, seed
    ), ("rounds",), ("verifier_solver_id",)),
    "plan_search": Method(lambda c, solver, task, verifier, seed: m.plan_search(
        solver, task, c.n, seed, verifier=verifier
    ), ("n",)),
    "leap": Method(lambda c, solver, task, verifier, seed: m.leap(
        solver, c.params.get("examples", []), task, seed
    ), (), ("examples",)),
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
        integer(self.n, "n", floor=1)
        integer(self.rounds, "rounds", floor=1)
        if self.method_id == "prover_verifier" and self.verifier_solver is None:
            raise ConfigurationError("prover_verifier needs a 'verifier_solver_id' param naming its judge")
        if self.method_id == "rto":
            m.check_template(self.params.get("forward_prompt", "{input}"), "input", "rto forward_prompt")
            m.check_template(self.params.get("backward_prompt", "{output}"), "output", "rto backward_prompt")
        if self.method_id == "leap":
            list_of(self.params.get("examples", []), "leap examples", partial(list_of, entry=string, size=2))
        if self.weights is not None:
            object.__setattr__(self, "weights", list_of(self.weights, "weights", number))
            total = sum(self.weights)
            if abs(total - 1.0) > m.WEIGHT_TOL:
                raise ConfigurationError(f"weights sum to {total}, not 1")
            agents = 1 + len(self.extra_solvers)  # the cell's solver, then the extra ones
            if self.method_id == "mixture_of_agents" and len(self.weights) != agents:
                raise ConfigurationError(f"mixture_of_agents has {agents} agent(s) but {len(self.weights)} weights")

    @classmethod
    def from_dict(cls, entry: dict, solvers: Mapping) -> "MethodConfig":
        """Parse one ``methods`` entry of a run config, which sets only what
        its method reads (``METHODS``), looking up the solver ids in its
        ``params`` (``extra_solver_ids``, ``verifier_solver_id``)."""
        method_id = string(json_object(entry, "a method entry", required=("method_id",))["method_id"], "method_id")
        if method_id not in METHODS:
            raise ConfigurationError(f"unknown method {method_id!r}")
        where = f"method {method_id!r}"
        json_object(entry, where, required=("method_id",), keys=(*METHODS[method_id].keys, "params"))
        params = json_object(entry.get("params", {}), f"{where} params", keys=METHODS[method_id].params)

        def solver(solver_id, what):
            if string(solver_id, what) not in solvers:
                raise ConfigurationError(f"{where}: no solver {solver_id!r}")
            return solvers[solver_id]

        return cls(
            method_id=method_id,
            n=entry.get("n", 1),
            rounds=entry.get("rounds", 1),
            weights=entry.get("weights"),
            params=params,
            extra_solvers=list_of(params.get("extra_solver_ids", []), f"{where} extra_solver_ids", solver),
            verifier_solver=None if "verifier_solver_id" not in params else solver(
                params["verifier_solver_id"], f"{where} verifier_solver_id"),
        )


def run_method(config: MethodConfig, solver, task: Task, *, seed: int) -> tuple[m.MethodResult, Verdict]:
    """Run one cell: the method samples, checking each sample with ``verify``
    when the task has a check, and the verdict of its pick comes back with it."""
    from ..core.verify import verify  # looked up per call, so a wrapper set on that module is the one called

    result = METHODS[config.method_id].call(config, solver, task, verify if task.check is not None else None, seed)
    return result, verify(task, result.candidate)
