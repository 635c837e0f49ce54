"""Command-line entry point.

Subcommands::

    quorum eval  --config cfg.json [--seed N] [--parallel K] [--out DIR]
    quorum arc   {verify,predict,augment,loo} --task FILE [...]
    quorum game  NAME PARAMS... [--out FILE] [--simulate EPISODES]
    quorum graph {run,mutate} [...]

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 internal error.  All randomness flows from the root ``--seed`` via
per-component derived streams, so fixed-seed runs with scripted solvers
are byte-reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from itertools import product, starmap
from pathlib import Path
from typing import Callable

from .adapters import resolve_solvers
from .aggregate import coverage_curve, render_matrix, success_rate, table_name
from .arc.augment import augment, leave_one_out
from .arc.dsl import parse_dsl
from .arc.programs import ExternalProgram, predict, verify_program
from .arc.task import ArcTask
from .core.answers import normalize_answer
from .core.model import Candidate, Task, Verdict
from .core.runstore import CellRecord, RunStore, verdict_to_json
from .core.verify import verify
from .errors import (ConfigurationError, DslSyntaxError, IntractableError, MalformedAnswerError, QuorumError,
                     integer, json_object, list_of, parse_json, read_json, string, write_json)
from .graph.execute import BoundGraph, bind, execute
from .graph.model import PipelineGraph
from .graph.mutate import mutate, parse_proposal_line
from .methods import MethodConfig, run_method
from .seeds import derive_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


# -- eval -------------------------------------------------------------------


def _load_eval_config(path: str) -> dict:
    config = json_object(read_json(path, "the eval config"), "an eval config", required=("solvers", "methods", "tasks"))
    for key in ("solvers", "methods"):
        if not list_of(config[key], f"eval config {key!r}"):
            raise ConfigurationError(f"eval config {key!r} must not be empty")
    for key in ("tasks", "out"):
        string(config.get(key, ""), f"eval config {key!r}")
    integer(config.get("seed", 0), "eval config 'seed'")
    return config


def _load_tasks(path) -> tuple[list[Task], str]:
    """The tasks of a tasks file and the sha256 of its bytes, else a
    ConfigurationError: the file must hold a non-empty JSON list of task
    objects, each with its own non-empty string ``id`` that a result table
    can hold."""
    data = Path(path).read_bytes()
    entries = list_of(parse_json(data, f"the tasks file {path}"), f"the tasks in {path}")
    if not entries:
        raise ConfigurationError(f"no tasks in {path}")
    ids = set()
    for entry in entries:
        task_id = string(json_object(entry, f"a task in {path}", required=("id",))["id"],
                         f"{path}: a task id", nonempty=True)
        table_name(task_id, f"{path}: the task id")
        if task_id in ids:
            raise ConfigurationError(f"{path}: two tasks have the id {task_id!r}")
        ids.add(task_id)
    return [Task.from_dict(entry) for entry in entries], hashlib.sha256(data).hexdigest()


def _load_graph_column(entry: dict, solvers: dict) -> BoundGraph:
    """The graph a ``{"graph": PATH}`` methods entry names, checked whole: it
    validates, takes no input but ``task``, declares an ``answer`` output, and
    binds to ``solvers``."""
    path = string(json_object(entry, "a graph entry", required=("graph",), keys=())["graph"], "a graph entry's path")
    graph = PipelineGraph.load(path)
    table_name(string(graph.name, f"the name of graph {path}", nonempty=True), f"the name of graph {path}")
    if set(graph.inputs) - {"task"}:
        raise ConfigurationError(f"graph {path} takes inputs {sorted(graph.inputs)}; an eval column gives only 'task'")
    if "answer" not in graph.outputs:
        raise ConfigurationError(f"graph {path} declares no 'answer' output")
    return bind(graph, solvers)


@dataclass(frozen=True)
class _Column:
    """One column of a sweep, built when the config loads."""

    label: str
    solver_id: str  # the candidate's, on a cell that raises
    method_id: str  # likewise
    seed_labels: tuple  # a cell's seed derives from the root seed, the task id and these
    run: Callable  # run(task, seed) -> the cell's (candidate, verdict, trace)


def _run_method(config: MethodConfig, solver, task: Task, seed: int) -> tuple[Candidate, Verdict, dict]:
    result, verdict = run_method(config, solver, task, seed=seed)
    return result.candidate, verdict, result.trace.to_json()


def _run_graph(bound: BoundGraph, column: str, timed: bool, task: Task, seed: int) -> tuple[Candidate, Verdict, dict]:
    """A graph cell: its candidate is the ``answer`` output normalized to the
    task's kind, or an error naming a failed node or the missing answer, with
    its wall time when ``timed``, and ``verify`` judges it.  The graph's own
    ``passed`` output and its trace go into the cell's trace only."""
    start = time.monotonic()
    outputs, trace = execute(bound, {"task": task}, seed)
    elapsed_ms = int((time.monotonic() - start) * 1000) if timed else 0
    failed = [entry for entry in trace.entries if entry.error]
    answer = error = None
    if failed:
        error = f"node {failed[0].node_id!r} failed: {failed[0].error}"
    elif outputs["answer"] is None:
        error = "the graph gave no 'answer'"
    else:
        try:
            answer = normalize_answer(outputs["answer"], task.answer_kind)
        except MalformedAnswerError as exc:
            error = f"malformed output: {exc}"
    candidate = Candidate(answer=answer, solver_id=column, method_id="graph", seed=seed, elapsed_ms=elapsed_ms,
                          error=error)
    return candidate, verify(task, candidate), {"passed": bool(outputs.get("passed")), **trace.to_json()}


def _run_cell(seed: int, timed: bool, task: Task, column: _Column) -> CellRecord:
    """The cell of ``task`` in ``column``; one that raises (but for a config
    mistake) becomes an error cell naming its cause, without a trace."""
    cell_seed = derive_seed(seed, task.id, *column.seed_labels)
    try:
        candidate, verdict, trace = column.run(task, cell_seed)
    except ConfigurationError:
        raise
    except Exception as exc:  # one bad cell becomes an error cell naming its cause; the sweep goes on
        cause = f"internal error: {type(exc).__name__}: {exc}"
        candidate = Candidate(answer=None, solver_id=column.solver_id, method_id=column.method_id, seed=cell_seed,
                              elapsed_ms=0, error=cause)
        verdict, trace = Verdict.errored(cause), None
    return CellRecord(task_id=task.id, solver_id=column.label, candidate=candidate, verdict=verdict,
                      ts_ms=int(time.time() * 1000) if timed else 0, trace=trace)


def _ordered_map(pool, fn, items, window: int):
    """``starmap(fn, items)`` on ``pool``, in order, with at most ``window``
    calls submitted but not yet taken by the consumer; the calls not
    yet started are cancelled when one raises or the generator is closed."""
    pending = deque()
    try:
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _count_errors(cells, errors: list):
    """``cells``, passed through as they arrive; each internal-error cell (the
    one kind without a trace) adds ``"TASK COLUMN: CAUSE"`` to ``errors``."""
    for cell in cells:
        if cell.trace is None:
            errors.append(f"{cell.task_id} {cell.solver_id}: {cell.candidate.error}")
        yield cell


def cmd_eval(args) -> int:
    config = _load_eval_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    out_root = Path(args.out or config.get("out", "runs"))

    solvers = resolve_solvers(config["solvers"], cache_root=out_root / "cache")
    # Without a real backend a cell is CPU-bound Python that threads only
    # slow down, and its record must be byte-reproducible.
    deterministic = all(getattr(s, "deterministic_timing", False) for s in solvers.values())
    units = [_load_graph_column(entry, solvers) if isinstance(entry, dict) and "graph" in entry
             else MethodConfig.from_dict(entry, solvers) for entry in config["methods"]]

    # A method is one column per solver, headed method@solver; a graph is one
    # column, headed by its name, whose nodes name their own solvers.
    columns = []
    names = [unit.graph.name if isinstance(unit, BoundGraph) else unit.method_id for unit in units]
    for i, (unit, name) in enumerate(zip(units, names)):
        label = f"{name}#{names[:i].count(name) + 1}" if names.count(name) > 1 else name
        if isinstance(unit, BoundGraph):
            columns.append(_Column(label, label, "graph", (label,),
                                   partial(_run_graph, unit, label, not deterministic)))
        else:
            columns.extend(_Column(f"{label}@{sid}", sid, unit.method_id, (sid, unit.method_id),
                                   partial(_run_method, unit, solvers[sid])) for sid in sorted(solvers))
    labels = [column.label for column in columns]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        raise ConfigurationError(f"the methods entries repeat the column(s) {', '.join(map(repr, clashes))}; "
                                 "rename a graph")

    tasks, tasks_sha256 = _load_tasks(config["tasks"])
    store = RunStore(out_root)  # an --out that is not a directory stops the run here
    # The run is named by all that decides its cells: the config, the seed,
    # the tasks file's bytes and each graph it runs.
    graphs = [unit.graph.to_json() for unit in units if isinstance(unit, BoundGraph)]
    run_id = store.create_run({"config": config, "seed": seed, "tasks_sha256": tasks_sha256, "graphs": graphs})

    # Both mappers yield in (task, column) order, so the record is canonical,
    # and the store writes each cell as it comes.
    run_cell = partial(_run_cell, seed, not deterministic)
    cells = product(tasks, columns)
    errors = []  # of the internal-error cells, in canonical order
    if deterministic or (args.parallel or 1) <= 1:
        matrix = store.record_run(run_id, _count_errors(starmap(run_cell, cells), errors))
    else:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            matrix = store.record_run(run_id, _count_errors(
                _ordered_map(pool, run_cell, cells, 2 * args.parallel), errors))

    run_dir = out_root / run_id
    table = render_matrix(matrix)
    (run_dir / "matrix.txt").write_text(table)
    curve = coverage_curve(matrix)
    (run_dir / "coverage.csv").write_text(curve.to_csv())
    write_json(run_dir / "matrix.json", matrix.to_json())
    print(table)
    print(f"success rate (any column): {success_rate(matrix):.4f}")
    print(f"run: {run_id} -> {run_dir}")
    if errors:
        print(f"internal error in {len(errors)} of {len(tasks) * len(columns)} cell(s); first: {errors[0]}",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# -- arc --------------------------------------------------------------------


def _parse_program(args):
    if getattr(args, "external", None):
        return ExternalProgram(tuple(args.external), timeout_ms=args.timeout_ms)
    if not getattr(args, "program", None):
        raise ConfigurationError("provide --program TEXT or --external CMD...")
    return parse_dsl(args.program)


def cmd_arc(args) -> int:
    if args.arc_command == "verify":
        task = ArcTask.load(args.task)
        verdict = verify_program(_parse_program(args), task)
        for check in verdict.checks:
            print(f"{check.name}: {'pass' if check.passed else 'fail'} ({check.detail})")
        if verdict.status == "error":
            print(f"error: {verdict.detail}")
        if args.out:
            write_json(args.out, verdict_to_json(verdict))
        return EXIT_OK if verdict.is_pass else EXIT_VERIFY_FAILED

    if args.arc_command == "predict":
        task = ArcTask.load(args.task)
        grids = predict(_parse_program(args), task, unsafe=args.unsafe)
        for i, grid in enumerate(grids):
            if i:
                print()
            print(grid.to_text())
        if args.out:
            write_json(args.out, [g.to_lists() for g in grids])
        return EXIT_OK

    task = ArcTask.load(args.task)  # augment or loo, the parser's only other choices
    if args.arc_command == "augment":
        variants, what = augment(task), "variant(s)"
    else:
        variants, what = [variant for variant, _held in leave_one_out(task)], "leave-one-out variant(s)"
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for variant in variants:
        name = variant.id.replace(":", "_") + ".json"
        write_json(out_dir / name, variant.to_dict())
    print(f"{len(variants)} {what} written to {out_dir}")
    return EXIT_OK


# -- game -------------------------------------------------------------------


def cmd_game(args) -> int:
    from .games import exact_game, random_policy, sequence_max_len_with_witness, simulate

    name = args.name
    exact = exact_game(name)
    usage = ConfigurationError(f"usage: game {name} {' '.join(p.upper() for p in exact.params)} (integers)")
    try:
        params = [int(p) for p in args.params]
    except ValueError as exc:
        raise usage from exc
    if len(params) != len(exact.params):
        raise usage
    game_params = dict(zip(exact.params, params))
    record: dict = {"game": name, "params": params}

    if name == "sequence":
        value, witness = sequence_max_len_with_witness(*params)
    else:
        value = exact.solve(*params)
    if exact.answer_kind == "integer":
        record["value"] = value
        print(f"{exact.label} = {value}")
    else:
        record[exact.label] = value
        print(f"{exact.label}: {'true' if value else 'false'}")
    if name == "sequence":
        record["witness"] = list(witness)
        print(f"witness: {','.join(map(str, witness))}")

    if args.simulate:
        game = exact.build(**game_params)
        trajectories = simulate(game, random_policy, args.simulate, args.seed or 0)
        record["simulation"] = {
            "episodes": args.simulate,
            "seed": args.seed or 0,
            "total_rewards": [t.total_reward for t in trajectories],
        }
        print(f"simulated {args.simulate} episode(s); mean reward "
              f"{sum(t.total_reward for t in trajectories) / args.simulate:.3f}")

    if args.out:
        write_json(args.out, record)
    return EXIT_OK


# -- graph ------------------------------------------------------------------


def cmd_graph(args) -> int:
    if args.graph_command == "run":
        graph = PipelineGraph.load(args.graph)
        inputs = json_object(parse_json(args.inputs, "graph --inputs"), "graph --inputs") if args.inputs else {}
        if args.task:
            inputs.setdefault("task", ArcTask.load(args.task))
        solvers = {}
        if args.config:
            config = json_object(read_json(args.config, "the graph config"), "a graph config")
            solvers = resolve_solvers(config.get("solvers", []), cache_root=Path(
                string(config.get("out", "runs"), "graph config 'out'")) / "cache")
        outputs, trace = execute(bind(graph, solvers), inputs, args.seed or 0)
        text = json.dumps({"outputs": outputs, "trace": trace.to_json()}, indent=2, sort_keys=True, default=repr)
        print(text)
        if args.out:
            Path(args.out).write_text(text + "\n")
        return EXIT_VERIFY_FAILED if any(e.error for e in trace.entries) else EXIT_OK

    graph = PipelineGraph.load(args.graph)  # mutate, the parser's only other choice
    mutated = mutate(graph, parse_proposal_line(args.mutation))
    target = Path(args.out or args.graph)
    mutated.save(target)
    print(f"mutated graph written to {target}")
    return EXIT_OK


# -- parser -----------------------------------------------------------------


@cache  # one parser per process: every in-process main() call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quorum", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None, help="root seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a task x solver x method sweep")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--parallel", type=int, default=None, metavar="K",
                        help="run up to K http-model cells at a time; scripted sweeps run serially")
    p_eval.add_argument("--out", default=None)

    p_arc = sub.add_parser("arc", help="puzzle verification pipeline")
    arc_sub = p_arc.add_subparsers(dest="arc_command", required=True)
    for name in ("verify", "predict"):
        p = arc_sub.add_parser(name)
        p.add_argument("--task", required=True)
        p.add_argument("--program", default=None)
        p.add_argument("--external", nargs="+", default=None, metavar="CMD")
        p.add_argument("--timeout-ms", type=int, default=ExternalProgram.timeout_ms,
                       help="kill an --external program after this long (default %(default)s)")
        p.add_argument("--out", default=None)
        if name == "predict":
            p.add_argument("--unsafe", action="store_true",
                           help="skip train-pair verification before predicting")
    for name in ("augment", "loo"):
        p = arc_sub.add_parser(name)
        p.add_argument("--task", required=True)
        p.add_argument("--out", default=None)

    p_game = sub.add_parser("game", help="exact game solvers and simulation")
    p_game.add_argument("name", help="a game with an exact solver")
    p_game.add_argument("params", nargs="+")
    p_game.add_argument("--simulate", type=int, default=0, metavar="EPISODES")
    p_game.add_argument("--out", default=None)

    p_graph = sub.add_parser("graph", help="pipeline graphs")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_run = graph_sub.add_parser("run")
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--inputs", default=None, help="JSON object of graph inputs")
    p_run.add_argument("--task", default=None, help="puzzle task file bound to the 'task' input")
    p_run.add_argument("--config", default=None, help="solver config the graph's nodes bind to")
    p_run.add_argument("--out", default=None)
    p_mut = graph_sub.add_parser("mutate")
    p_mut.add_argument("--graph", required=True)
    p_mut.add_argument("--mutation", required=True, help="'KIND TARGET [JSON]' line")
    p_mut.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"eval": cmd_eval, "arc": cmd_arc, "game": cmd_game, "graph": cmd_graph}[args.command](args)
    except (ConfigurationError, DslSyntaxError, IntractableError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuorumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
