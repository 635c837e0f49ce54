"""Single entry point mapping a MethodConfig onto the method functions.

Used by the evaluation command and the graph ``run_method`` op so run
configs can name any method uniformly.  Method-specific knobs live in
``config.params``:

* ``rto``: ``forward_prompt`` / ``backward_prompt`` (templated with
  ``{input}`` / ``{output}``),
* ``leap``: ``examples`` as a list of ``[input, answer]`` pairs,
* ``mixture_of_agents`` and ``prover_verifier``: consume the config's
  extra and verifier solvers.
"""

from __future__ import annotations

from typing import Callable

from ..core.model import Task
from ..errors import ConfigurationError
from . import combinators as m
from .config import MethodConfig


def _prover_verifier(config, solver, task, verifier, seed):
    judge = config.verifier_solver
    if judge is None and config.extra_solvers:
        judge = config.extra_solvers[0]
    if judge is None:
        raise ConfigurationError("prover_verifier needs a verifier solver")
    return m.prover_verifier(solver, judge, task, config.rounds, seed)


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
    "prover_verifier": _prover_verifier,
    "plan_search": lambda c, solver, task, verifier, seed: m.plan_search(solver, task, c.n, seed, verifier=verifier),
    "leap": lambda c, solver, task, verifier, seed: m.leap(
        solver, [tuple(pair) for pair in c.params.get("examples", [])], task, seed
    ),
}


def run_method(config: MethodConfig, solver, task: Task, verifier=None, *, seed: int) -> m.MethodResult:
    return METHODS[config.method_id](config, solver, task, verifier, seed)
