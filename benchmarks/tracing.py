"""Spans around the calls into each ``quorum`` layer, from outside.

``install()`` patches each public function where its caller looks it up
(``derive_seed`` is bound by name in ``methods.combinators``, ``cli``,
``graph.ops`` and ``seeds`` itself, so all four names are replaced).

A span is nine integers: id, name code, start ns, end ns, parent id, cell
id, thread id, child ns (time inside its child spans) and thread CPU ns.
Finished spans go into one flat int64 array, so millions of them cost
72 bytes each and nothing for the garbage collector to walk; they stay in
memory until the run ends.  Each thread keeps its own stack of open
spans, so ``--parallel`` runs trace safely (one ``array.extend`` per span
is a single step under the interpreter lock).
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import threading
from array import array
from time import perf_counter_ns, thread_time_ns

import numpy as np

METHOD_FUNCTIONS = {
    "zero_shot": "zero_shot", "best_of_n": "best_of_n", "self_consistency": "self_consistency",
    "mixture_of_agents": "mixture_of_agents", "mcts_resample": "mcts", "round_trip": "rto",
    "prover_verifier": "prover_verifier", "plan_search": "plan_search", "leap": "leap",
}
GRAPH_OPS = ("puzzle_prompt", "solve_text", "puzzle_verify", "run_method")
VERIFIERS = ("reference", "arc_program", "game_answer")
SPAN_NAMES = (
    "cell", "seeds.derive_seed", "adapters.sample", "adapters.scripted.solve", "adapters.chat.complete",
    "core.answers.normalize", *(f"core.verify.{v}" for v in VERIFIERS), "arc.task.from_dict",
    "arc.dsl.parse", "arc.dsl.eval", "arc.programs.verify_program", "games.exact_value",
    *(f"methods.{m}" for m in METHOD_FUNCTIONS.values()), "core.runstore.cell_to_json",
    "core.runstore.record_run", "core.runstore.to_matrix", "aggregate.render_matrix",
    "aggregate.coverage_curve", "graph.execute", *(f"graph.op.{op}" for op in GRAPH_OPS),
    "cli.eval", "cli.arc", "cli.graph",
)
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "cell", "thread", "child_ns", "cpu_ns")


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.enabled = True
        self.codes = {name: code for code, name in enumerate(SPAN_NAMES)}
        self.keys: dict[str, set] = {name: set() for name in SPAN_NAMES}  # distinct inputs per layer
        self.cache_hits = 0
        self._hits_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._cells = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, *, cell=False, cpu=False, key=None, after=None):
        """``name`` may be a callable of the call's arguments."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            label = name(args, kwargs) if callable(name) else name
            if key is not None:
                self.keys[label].add(key(args, kwargs))
            # open span: [id, cell id, child ns]
            span = [next(self._ids), next(self._cells) if cell else (parent[1] if parent else 0), 0]
            stack.append(span)
            cpu0 = thread_time_ns() if cpu else 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                cpu_ns = thread_time_ns() - cpu0 if cpu else 0
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.spans.extend((span[0], self.codes[label], start, end, parent[0] if parent else 0,
                                   span[1], threading.get_native_id(), span[2], cpu_ns))
            if after is not None:
                after(args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS))

    def dump(self, path) -> None:
        """Write the spans as .npy (one row per span) with a JSON legend."""
        np.save(path, self.table())
        with open(f"{path}.json", "w") as fh:
            json.dump({"fields": FIELDS, "names": SPAN_NAMES}, fh)


def _verify_name(args, kwargs):
    task = args[0]
    return "core.verify." + (task.verifier.kind if task.verifier is not None else "reference")


def install() -> Tracer:
    """Wrap every traced layer of an imported ``quorum`` and return the tracer."""
    # Submodules by import path: some packages re-export a function under
    # the submodule's own name (``quorum.core.verify``).
    (base, augment, dsl, programs, cli, answers, runstore, verify, games, catalog, ops, methods,
     combinators, seeds) = (importlib.import_module(f"quorum.{name}") for name in (
        "adapters.base", "arc.augment", "arc.dsl", "arc.programs", "cli", "core.answers", "core.runstore",
        "core.verify", "games", "games.catalog", "graph.ops", "methods", "methods.combinators", "seeds"))
    from quorum.adapters.chat import ChatClient
    from quorum.adapters.scripted import ScriptedSolver
    from quorum.arc.task import ArcTask

    t = Tracer()

    def patch(modules, attr, wrapped):
        for module in modules:
            setattr(module, attr, wrapped)

    def verify_key(args, kwargs):
        return args[0].id

    patch((seeds, combinators, cli, ops), "derive_seed", t.wrap(seeds.derive_seed, "seeds.derive_seed"))
    patch((combinators,), "sample", t.wrap(combinators.sample, "adapters.sample"))
    ScriptedSolver.solve = t.wrap(ScriptedSolver.solve, "adapters.scripted.solve")

    def count_hit(args):
        trace = args[0].last_trace
        if trace and trace[0].get("source") == "cache":
            with t._hits_lock:
                t.cache_hits += 1

    ChatClient.complete = t.wrap(ChatClient.complete, "adapters.chat.complete", after=count_hit)
    patch((answers, base, verify, cli, runstore), "normalize_answer",
          t.wrap(answers.normalize_answer, "core.answers.normalize"))
    patch((verify, cli), "verify", t.wrap(verify.verify, _verify_name, key=verify_key))
    from_dict = ArcTask.__dict__["from_dict"].__func__
    ArcTask.from_dict = classmethod(t.wrap(from_dict, "arc.task.from_dict",
                                           key=lambda a, kw: a[2] if len(a) > 2 else kw["task_id"]))
    patch((dsl, cli), "parse_dsl", t.wrap(dsl.parse_dsl, "arc.dsl.parse"))
    patch((programs, augment), "eval_dsl", t.wrap(dsl.eval_dsl, "arc.dsl.eval"))
    patch((programs, cli), "verify_program", t.wrap(programs.verify_program, "arc.programs.verify_program"))
    patch((games, catalog), "exact_value", t.wrap(catalog.exact_value, "games.exact_value"))
    for fn_name, method_id in METHOD_FUNCTIONS.items():
        setattr(combinators, fn_name, t.wrap(getattr(combinators, fn_name), f"methods.{method_id}", cpu=True))
    patch((cli, methods), "run_method", t.wrap(methods.run_method, "cell", cell=True))
    runstore.CellRecord.to_json = t.wrap(runstore.CellRecord.to_json, "core.runstore.cell_to_json")
    runstore.RunStore.record_run = t.wrap(runstore.RunStore.record_run, "core.runstore.record_run")
    runstore.RunRecord.to_matrix = t.wrap(runstore.RunRecord.to_matrix, "core.runstore.to_matrix")
    cli.render_matrix = t.wrap(cli.render_matrix, "aggregate.render_matrix")
    cli.coverage_curve = t.wrap(cli.coverage_curve, "aggregate.coverage_curve")
    cli.execute = t.wrap(cli.execute, "graph.execute")
    for op in GRAPH_OPS:
        definition = ops._REGISTRY[op]
        ops._REGISTRY[op] = dataclasses.replace(definition, fn=t.wrap(definition.fn, f"graph.op.{op}"))
    for command in ("eval", "arc", "graph"):
        setattr(cli, f"cmd_{command}", t.wrap(getattr(cli, f"cmd_{command}"), f"cli.{command}"))
    return t


# name in BENCHMARK.json -> (span name, statistic); statistics are
# calls, us / ms (mean per call), self_us / self_ms (self time per call)
LAYER_METRICS = {
    "seeds.derive_seed.calls": ("seeds.derive_seed", "calls"),
    "seeds.derive_seed.us": ("seeds.derive_seed", "us"),
    "adapters.sample.calls": ("adapters.sample", "calls"),
    "adapters.sample.self_us": ("adapters.sample", "self_us"),
    "adapters.scripted.solve.us": ("adapters.scripted.solve", "us"),
    "adapters.chat.complete.calls": ("adapters.chat.complete", "calls"),
    "adapters.chat.complete.us": ("adapters.chat.complete", "us"),
    "core.answers.normalize.calls": ("core.answers.normalize", "calls"),
    "core.answers.normalize.us": ("core.answers.normalize", "us"),
    "core.verify.reference.calls": ("core.verify.reference", "calls"),
    "core.verify.reference.us": ("core.verify.reference", "us"),
    "core.verify.arc_program.calls": ("core.verify.arc_program", "calls"),
    "core.verify.arc_program.ms": ("core.verify.arc_program", "ms"),
    "core.verify.game_answer.calls": ("core.verify.game_answer", "calls"),
    "core.verify.game_answer.ms": ("core.verify.game_answer", "ms"),
    "arc.task.from_dict.calls": ("arc.task.from_dict", "calls"),
    "arc.task.from_dict.ms": ("arc.task.from_dict", "ms"),
    "arc.dsl.parse.us": ("arc.dsl.parse", "us"),
    "arc.dsl.eval.calls": ("arc.dsl.eval", "calls"),
    "arc.dsl.eval.ms": ("arc.dsl.eval", "ms"),
    "arc.programs.verify_program.ms": ("arc.programs.verify_program", "ms"),
    "games.exact_value.calls": ("games.exact_value", "calls"),
    "games.exact_value.ms": ("games.exact_value", "ms"),
    **{f"methods.{m}.self_us": (f"methods.{m}", "self_us") for m in METHOD_FUNCTIONS.values()},
    "core.runstore.cell_to_json.us": ("core.runstore.cell_to_json", "us"),
    "core.runstore.record_run.ms": ("core.runstore.record_run", "ms"),
    "core.runstore.to_matrix.ms": ("core.runstore.to_matrix", "ms"),
    "aggregate.render_matrix.ms": ("aggregate.render_matrix", "ms"),
    "aggregate.coverage_curve.ms": ("aggregate.coverage_curve", "ms"),
    "graph.execute.ms": ("graph.execute", "ms"),
    **{f"graph.op.{op}.self_ms": (f"graph.op.{op}", "self_ms") for op in GRAPH_OPS},
    "cli.eval.self_ms": ("cli.eval", "self_ms"),
    "cli.arc.self_ms": ("cli.arc", "self_ms"),
    "cli.graph.self_ms": ("cli.graph", "self_ms"),
}
_SCALE = {"us": 1e3, "ms": 1e6, "self_us": 1e3, "self_ms": 1e6}


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer numbers from the recorded spans (zero where a layer never ran)."""
    spans = tracer.table()
    codes, width = spans[:, 1], len(SPAN_NAMES)
    duration = spans[:, 3] - spans[:, 2]
    calls = np.bincount(codes, minlength=width)
    total = np.bincount(codes, weights=duration, minlength=width)
    own = np.bincount(codes, weights=duration - spans[:, 7], minlength=width)
    cpu = np.bincount(codes, weights=spans[:, 8], minlength=width)

    def stat(name):
        code = tracer.codes[name]
        return int(calls[code]), float(total[code]), float(own[code])

    out = {}
    for metric, (name, kind) in LAYER_METRICS.items():
        n, total_ns, self_ns = stat(name)
        if kind == "calls":
            out[metric] = n
        else:
            out[metric] = (self_ns if kind.startswith("self") else total_ns) / n / _SCALE[kind] if n else 0.0
    chat_calls = stat("adapters.chat.complete")[0]
    out["adapters.chat.cache_hit_ratio"] = tracer.cache_hits / chat_calls if chat_calls else 0.0
    parsed = len(tracer.keys["arc.task.from_dict"])
    out["arc.task.parses_per_task"] = stat("arc.task.from_dict")[0] / parsed if parsed else 0.0
    games_seen = len(tracer.keys["core.verify.game_answer"])
    out["games.solves_per_task"] = stat("games.exact_value")[0] / games_seen if games_seen else 0.0
    method_cpu = sum(float(cpu[tracer.codes[f"methods.{m}"]]) for m in METHOD_FUNCTIONS.values())
    eval_wall = stat("cli.eval")[1]
    out["cli.eval.worker_cpu_ratio"] = method_cpu / (workers * eval_wall) if eval_wall else 0.0
    return out
