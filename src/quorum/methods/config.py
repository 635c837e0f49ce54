"""The method table, a run config's ``methods`` entries, and ``run_method``,
which runs one cell for ``quorum eval`` and the graph ``run_method`` op.

A ``methods`` entry sets keyword arguments of its method's function in
``combinators``: ``n``, ``rounds`` and ``weights`` at its top level, and
``forward_prompt`` / ``backward_prompt`` (``rto``) and ``examples``
(``leap``, ``[input, answer]`` pairs) in its ``params``, where the solver
ids ``extra_solver_ids`` / ``verifier_solver_id`` become the solvers
``extra_solvers`` / ``verifier_solver`` they name.  ``MethodConfig.from_dict``
is the one place an entry is checked; what it leaves unset takes the
default written in the function's signature."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from string import Formatter
from typing import Mapping, NamedTuple

from ..core.model import Task, Verdict
from ..errors import ConfigurationError, integer, json_object, list_of, number, string
from . import combinators

WEIGHT_TOL = 1e-9


class Method(NamedTuple):
    """``function`` names the method's function in ``combinators``, looked up when a cell runs, so a
    wrapper set on that module is the one called.  ``keys`` and ``params`` are all that a
    ``methods`` entry may set."""

    function: str
    keys: tuple[str, ...] = ()
    params: tuple[str, ...] = ()


METHODS: dict[str, Method] = {
    "zero_shot": Method("zero_shot"),
    "best_of_n": Method("best_of_n", ("n",)),
    "self_consistency": Method("self_consistency", ("n",)),
    "mixture_of_agents": Method("mixture_of_agents", ("weights",), ("extra_solver_ids",)),
    "mcts": Method("mcts_resample", ("n",)),
    "rto": Method("round_trip", ("n",), ("forward_prompt", "backward_prompt")),
    "prover_verifier": Method("prover_verifier", ("rounds",), ("verifier_solver_id",)),
    "plan_search": Method("plan_search", ("n",)),
    "leap": Method("leap", (), ("examples",)),
}

# The keyword argument each solver-id param sets: the solver(s) it names.
SOLVER_ARGUMENTS = {"extra_solver_ids": "extra_solvers", "verifier_solver_id": "verifier_solver"}


def check_template(template, what: str, field: str) -> str:
    """``template`` if it is a ``str.format`` template whose one field is
    ``{field}``, with only a conversion and a format spec (no field nested
    in it) that a string takes, else a ConfigurationError naming ``what``."""
    try:
        fields = [(name, spec) for _, name, spec, _ in Formatter().parse(string(template, what)) if name is not None]
        if {name for name, _ in fields} == {field} and not any("{" in spec for _, spec in fields):
            template.format(**{field: ""})
            return template
    except ValueError:  # unbalanced braces, or a conversion or spec a string does not take
        pass
    raise ConfigurationError(f"{what} must be a string whose one field is {{{field}}}, got {template!r}")


@dataclass(frozen=True)
class MethodConfig:
    """A method and the keyword arguments its ``methods`` entry sets."""

    method_id: str
    kwargs: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, entry: dict, solvers: Mapping) -> "MethodConfig":
        """Parse one ``methods`` entry of a run config, which sets only what
        its method reads (``METHODS``), looking up the solver ids in its
        ``params`` (``extra_solver_ids``, ``verifier_solver_id``)."""
        method_id = string(json_object(entry, "a method entry", required=("method_id",))["method_id"], "method_id")
        if method_id not in METHODS:
            raise ConfigurationError(f"unknown method {method_id!r}")
        method, where = METHODS[method_id], f"method {method_id!r}"
        json_object(entry, where, required=("method_id",), keys=(*method.keys, "params"))
        judge = ("verifier_solver_id",) if method_id == "prover_verifier" else ()  # its one knob with no default
        params = json_object(entry.get("params", {}), f"{where} params", required=judge, keys=method.params)

        def solver(solver_id, what):
            if string(solver_id, what) not in solvers:
                raise ConfigurationError(f"{where}: no solver {solver_id!r}")
            return solvers[solver_id]

        read = {
            "n": partial(integer, floor=1),
            "rounds": partial(integer, floor=1),
            "weights": partial(list_of, entry=number),
            "forward_prompt": partial(check_template, field="input"),
            "backward_prompt": partial(check_template, field="output"),
            "examples": partial(list_of, entry=partial(list_of, entry=string, size=2)),
            "extra_solver_ids": partial(list_of, entry=solver),
            "verifier_solver_id": solver,
        }
        given = {**{key: entry[key] for key in method.keys if key in entry}, **params}
        kwargs = {SOLVER_ARGUMENTS.get(key, key): read[key](value, f"{where} {key}") for key, value in given.items()}
        if "weights" in kwargs:
            weights = kwargs["weights"]
            if abs(sum(weights) - 1.0) > WEIGHT_TOL:
                raise ConfigurationError(f"{where} weights sum to {sum(weights)}, not 1")
            agents = 1 + len(kwargs.get("extra_solvers", ()))  # the cell's solver, then the extra ones
            if len(weights) != agents:
                raise ConfigurationError(f"mixture_of_agents has {agents} agent(s) but {len(weights)} weights")
        return cls(method_id, kwargs)


def run_method(config: MethodConfig, solver, task: Task, *, seed: int) -> tuple[combinators.MethodResult, Verdict]:
    """Run one cell: the method samples, checking each sample with ``verify``
    when the task has a check, and the verdict of its pick comes back with it."""
    from ..core.verify import verify  # looked up per call, so a wrapper set on that module is the one called

    result = getattr(combinators, METHODS[config.method_id].function)(solver, task, seed, **config.kwargs)
    return result, verify(task, result.candidate)
