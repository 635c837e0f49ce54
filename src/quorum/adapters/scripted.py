"""Deterministic scripted solvers for tests and desk-scale experiments.

A scripted solver stands in for a model's output distribution: each task
id maps to a list of (answer, probability) pairs and draws are
bit-reproducible functions of (rng_seed, task_id, seed).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from ..errors import ConfigurationError, integer, json_object, list_of, number, string
from ..seeds import rng_for, uniform_for
from .base import SolverError

DEFAULT_KEY = "*"
PROB_TOL = 1e-9

AnswerTable = Sequence[tuple[str, float]]


def _as_table(entries, where: str) -> tuple[tuple[str, float], ...]:
    """``entries`` as (answer, probability) pairs whose probabilities sum
    to 1, else a ConfigurationError."""
    table = list_of(entries, where, _pair)
    total = sum(p for _, p in table)
    if abs(total - 1.0) > PROB_TOL:
        raise ConfigurationError(f"probabilities for {where} sum to {total}, not 1")
    return table


def _pair(entry, what: str) -> tuple[str, float]:
    answer, p = list_of(entry, what, size=2)
    return string(answer, f"{what} answer"), number(p, f"{what} probability")


def _as_stages(stages, key: str) -> tuple[tuple[str, float, tuple], ...]:
    """``stages`` as (prefix, probability, completion table) triples."""

    def stage(entry, what):
        prefix, p, table = list_of(entry, what, size=3)
        return string(prefix, f"{what} prefix"), p, _as_table(table, f"completions of prefix {prefix!r}")

    stages = list_of(stages, f"two-stage entries of {key!r}", stage)
    _as_table([(pre, p) for pre, p, _ in stages], f"two-stage prefixes of {key!r}")
    return stages


def _draw(table: AnswerTable, u: float) -> str:
    acc = 0.0
    for answer, p in table:
        acc += p
        if u < acc:
            return answer
    return table[-1][0]


class ScriptedSolver:
    """Table-driven solver.

    ``table`` maps task id (or ``"*"`` for any task) to (answer, prob)
    pairs.  ``prompt_triggers`` optionally overrides the table when a
    substring occurs in the prompt, which lets fixtures react to
    principle- or plan-conditioned prompts.  ``two_stage`` maps task id
    to (prefix, prob, completion-table) triples for methods that resample
    from an intermediate step.  Answers equal to ``"!error"`` (or
    starting with ``"!error:"``) raise :class:`SolverError` when drawn.
    """

    deterministic_timing = True

    def __init__(
        self,
        id: str,
        table: dict[str, AnswerTable],
        rng_seed: int = 0,
        prompt_triggers: Optional[dict[str, dict[str, AnswerTable]]] = None,
        two_stage: Optional[dict[str, Sequence[tuple[str, float, AnswerTable]]]] = None,
    ):
        self.id = string(id, "solver id", nonempty=True)
        self.table = {k: _as_table(v, f"{id} table {k!r}") for k, v in json_object(table, f"{id} table").items()}
        self.rng_seed = integer(rng_seed, f"{id} rng_seed")
        triggers = json_object({} if prompt_triggers is None else prompt_triggers, f"{id} prompt_triggers")
        self.prompt_triggers = {  # in sorted order, the order _table_for tries them in
            trig: {k: _as_table(v, f"{id} trigger {trig!r} table {k!r}")
                   for k, v in json_object(tab, f"{id} trigger {trig!r}").items()}
            for trig, tab in sorted(triggers.items())
        }
        stages = json_object({} if two_stage is None else two_stage, f"{id} two_stage")
        self.two_stage = {k: _as_stages(v, k) for k, v in stages.items()}

    def _table_for(self, task_id: str, prompt: str) -> AnswerTable:
        for trig, tabs in self.prompt_triggers.items():
            if trig in prompt:
                if task_id in tabs or DEFAULT_KEY in tabs:
                    return tabs.get(task_id, tabs.get(DEFAULT_KEY))
        if task_id in self.table:
            return self.table[task_id]
        if DEFAULT_KEY in self.table:
            return self.table[DEFAULT_KEY]
        raise SolverError(f"{self.id}: no scripted answers for task {task_id!r}")

    def solve(self, task_id: str, prompt: str, seed: int) -> str:
        answer = _draw(self._table_for(task_id, prompt), uniform_for(self.rng_seed, self.id, task_id, seed))
        if answer == "!error" or answer.startswith("!error:"):
            raise SolverError(answer.partition(":")[2] or f"{self.id}: scripted failure")
        return answer

    def _stages_for(self, task_id: str):
        if task_id in self.two_stage:
            return self.two_stage[task_id]
        if DEFAULT_KEY in self.two_stage:
            return self.two_stage[DEFAULT_KEY]
        return None

    def solve_prefix(self, task_id: str, prompt: str, seed: int) -> str:
        stages = self._stages_for(task_id)
        if stages is None:
            raise SolverError(f"{self.id}: no two-stage table for task {task_id!r}")
        table = [(pre, p) for pre, p, _ in stages]
        return _draw(table, uniform_for(self.rng_seed, self.id, task_id, "prefix", seed))

    def solve_completion(self, task_id: str, prompt: str, prefix: str, seed: int) -> str:
        stages = self._stages_for(task_id)
        for pre, _, tab in stages or ():
            if pre == prefix:
                return _draw(tab, uniform_for(self.rng_seed, self.id, task_id, "completion", prefix, seed))
        raise SolverError(f"{self.id}: unknown prefix {prefix!r}")


class TransformSolver:
    """Solver computed from the prompt by a function ``fn(prompt, rng)``."""

    deterministic_timing = True

    def __init__(self, id: str, fn: Callable[[str, random.Random], str], rng_seed: int = 0):
        self.id = id
        self.fn = fn
        self.rng_seed = rng_seed

    def solve(self, task_id: str, prompt: str, seed: int) -> str:
        return self.fn(prompt, rng_for(self.rng_seed, self.id, task_id, seed))
