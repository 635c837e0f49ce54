"""Command-line entry point.

Subcommands::

    quorum eval  --config cfg.json [--seed N] [--parallel K] [--out DIR]
    quorum arc   {verify,predict,augment,loo} --task FILE [...]
    quorum game  NAME PARAMS... [--out FILE] [--simulate EPISODES]
    quorum graph {run,mutate,abtest} [...]

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .adapters import ChatSolver, resolve_solvers
from .aggregate import coverage_curve, render_matrix, success_rate
from .arc.augment import augment, leave_one_out
from .arc.dsl import parse_dsl
from .arc.programs import ExternalProgram, predict, verify_program
from .arc.task import load_tasks_with_errors
from .core.model import Task
from .core.runstore import CellRecord, RunRecord, RunStore
from .core.verify import verify
from .errors import ConfigurationError, DslSyntaxError, IntractableError, QuorumError
from .graph.execute import execute
from .graph.model import GraphValidationError, PipelineGraph
from .graph.ops import ExecutionContext
from .graph.revise import ab_test, parse_proposal_line
from .graph.mutate import MutationError, mutate
from .methods import MethodConfig, run_method
from .seeds import derive_seed

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


# -- eval -------------------------------------------------------------------


def _load_eval_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    for key in ("solvers", "methods", "tasks"):
        if key not in config:
            raise ConfigurationError(f"eval config needs a {key!r} entry")
    return config


def cmd_eval(args) -> int:
    config = _load_eval_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    out_root = Path(args.out or config.get("out", "runs"))
    parallel = args.parallel or config.get("parallel", 1)

    solvers = resolve_solvers(config["solvers"], cache_root=out_root / "cache")
    deterministic = all(not isinstance(s, ChatSolver) for s in solvers.values())
    method_configs = [MethodConfig.from_dict(entry, solvers) for entry in config["methods"]]

    task_path = Path(config["tasks"])
    with open(task_path) as fh:
        tasks = [Task.from_dict(e) for e in json.load(fh)]
    if not tasks:
        raise ConfigurationError(f"no tasks in {task_path}")

    config_snapshot = {"config": config, "seed": seed}
    run_id = "run-" + hashlib.sha256(
        json.dumps(config_snapshot, sort_keys=True).encode()
    ).hexdigest()[:12]

    columns = []
    method_labels = []
    for mc in method_configs:
        label = mc.method_id
        if sum(1 for other in method_configs if other.method_id == mc.method_id) > 1:
            label = f"{mc.method_id}#{method_labels.count(mc.method_id) + 1}"
        method_labels.append(mc.method_id)
        for sid in sorted(solvers):
            columns.append((mc, sid, f"{label}@{sid}"))

    def run_cell(task: Task, mc: MethodConfig, sid: str):
        result = run_method(
            mc,
            solvers[sid],
            task,
            verifier=verify if task.check is not None else None,
            seed=derive_seed(seed, task.id, sid, mc.method_id),
        )
        verdict = verify(task, result.candidate)
        return result, verdict

    jobs = [(task, mc, sid, col) for task in tasks for mc, sid, col in columns]
    results = {}
    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            futures = {pool.submit(run_cell, t, mc, sid): (t.id, col) for t, mc, sid, col in jobs}
            for future, key in futures.items():
                results[key] = future.result()
    else:
        for t, mc, sid, col in jobs:
            results[(t.id, col)] = run_cell(t, mc, sid)

    record = RunRecord(run_id, config_snapshot)
    for task in tasks:
        for mc, sid, col in columns:
            result, verdict = results[(task.id, col)]
            record.add(
                CellRecord(
                    task_id=task.id,
                    solver_id=col,
                    candidate=result.candidate,
                    verdict=verdict,
                    ts_ms=0 if deterministic else int(time.time() * 1000),
                    trace=result.trace.to_json(),
                )
            )

    store = RunStore(out_root)
    store.record_run(record)
    run_dir = out_root / run_id
    matrix = record.to_matrix()
    table = render_matrix(matrix)
    (run_dir / "matrix.txt").write_text(table)
    curve = coverage_curve(matrix)
    (run_dir / "coverage.csv").write_text(curve.to_csv())
    with open(run_dir / "matrix.json", "w") as fh:
        json.dump(matrix.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(table)
    print(f"success rate (any column): {success_rate(matrix):.4f}")
    print(f"run: {run_id} -> {run_dir}")
    return EXIT_OK


# -- arc --------------------------------------------------------------------


def _load_single_task(path: str):
    tasks, errors = load_tasks_with_errors(path)
    if errors:
        raise ConfigurationError("; ".join(f"{e.task_id}: {e.reason}" for e in errors))
    if len(tasks) != 1:
        raise ConfigurationError(f"{path}: expected exactly one task, found {len(tasks)}")
    return tasks[0]


def _parse_program(args):
    if getattr(args, "external", None):
        return ExternalProgram(tuple(args.external), timeout_ms=args.timeout_ms)
    if not getattr(args, "program", None):
        raise ConfigurationError("provide --program TEXT or --external CMD...")
    return parse_dsl(args.program)


def cmd_arc(args) -> int:
    if args.arc_command == "verify":
        task = _load_single_task(args.task)
        verdict = verify_program(_parse_program(args), task)
        for check in verdict.checks:
            print(f"{check.name}: {'pass' if check.passed else 'fail'} ({check.detail})")
        if verdict.status == "error":
            print(f"error: {verdict.detail}")
        if args.out:
            from .core.runstore import verdict_to_json

            Path(args.out).write_text(json.dumps(verdict_to_json(verdict), indent=2) + "\n")
        return EXIT_OK if verdict.is_pass else EXIT_VERIFY_FAILED

    if args.arc_command == "predict":
        task = _load_single_task(args.task)
        grids = predict(_parse_program(args), task, unsafe=args.unsafe)
        for i, grid in enumerate(grids):
            if i:
                print()
            print(grid.to_text())
        if args.out:
            Path(args.out).write_text(
                json.dumps([g.to_lists() for g in grids], indent=2) + "\n"
            )
        return EXIT_OK

    if args.arc_command in ("augment", "loo"):
        task = _load_single_task(args.task)
        if args.arc_command == "augment":
            variants, what = augment(task), "variant(s)"
        else:
            variants, what = [variant for variant, _held in leave_one_out(task)], "leave-one-out variant(s)"
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for variant in variants:
            name = variant.id.replace(":", "_") + ".json"
            (out_dir / name).write_text(json.dumps(variant.to_dict(), indent=1) + "\n")
        print(f"{len(variants)} {what} written to {out_dir}")
        return EXIT_OK

    raise ConfigurationError(f"unknown arc subcommand {args.arc_command!r}")


# -- game -------------------------------------------------------------------


def cmd_game(args) -> int:
    from .games import build_game, exact_game, random_policy, sequence_max_len_with_witness, simulate

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
        game = build_game(name, **game_params)
        trajectories = simulate(game, random_policy, args.simulate, args.seed or 0)
        record["simulation"] = {
            "episodes": args.simulate,
            "seed": args.seed or 0,
            "total_rewards": [t.total_reward for t in trajectories],
        }
        print(f"simulated {args.simulate} episode(s); mean reward "
              f"{sum(t.total_reward for t in trajectories) / args.simulate:.3f}")

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# -- graph ------------------------------------------------------------------


def _graph_context(args) -> ExecutionContext:
    solvers = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
        solvers = resolve_solvers(config.get("solvers", []), cache_root=Path(config.get("out", "runs")) / "cache")
    return ExecutionContext(solvers=solvers, seed=args.seed or 0)


def cmd_graph(args) -> int:
    if args.graph_command == "run":
        graph = PipelineGraph.load(args.graph)
        inputs = json.loads(args.inputs) if args.inputs else {}
        if args.task:
            task = _load_single_task(args.task)
            inputs.setdefault("task", task)
        outputs, trace = execute(graph, inputs, _graph_context(args))
        text = json.dumps({"outputs": outputs, "trace": trace.to_json()}, indent=2, sort_keys=True, default=repr)
        print(text)
        if args.out:
            Path(args.out).write_text(text + "\n")
        failed = [e.node_id for e in trace.entries if e.error]
        return EXIT_OK if not failed else EXIT_VERIFY_FAILED

    if args.graph_command == "mutate":
        graph = PipelineGraph.load(args.graph)
        mutated = mutate(graph, parse_proposal_line(args.mutation))
        target = Path(args.out or args.graph)
        mutated.save(target)
        print(f"mutated graph written to {target}")
        return EXIT_OK

    if args.graph_command == "abtest":
        variants = [PipelineGraph.load(p) for p in args.graphs]
        with open(args.tasks) as fh:
            entries = json.load(fh)
        tasks = [dict(e) for e in entries]
        matrix = ab_test(variants, tasks, _graph_context(args))
        table = render_matrix(matrix)
        print(table)
        if args.out:
            Path(args.out).write_text(json.dumps(matrix.to_json(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK

    raise ConfigurationError(f"unknown graph subcommand {args.graph_command!r}")


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quorum", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None, help="root seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run a task x solver x method sweep")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--parallel", type=int, default=None)
    p_eval.add_argument("--out", default=None)

    p_arc = sub.add_parser("arc", help="puzzle verification pipeline")
    arc_sub = p_arc.add_subparsers(dest="arc_command", required=True)
    for name in ("verify", "predict"):
        p = arc_sub.add_parser(name)
        p.add_argument("--task", required=True)
        p.add_argument("--program", default=None)
        p.add_argument("--external", nargs="+", default=None, metavar="CMD")
        p.add_argument("--timeout-ms", type=int, default=10_000)
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
    p_run.add_argument("--config", default=None, help="solver config for the execution context")
    p_run.add_argument("--out", default=None)
    p_mut = graph_sub.add_parser("mutate")
    p_mut.add_argument("--graph", required=True)
    p_mut.add_argument("--mutation", required=True, help="'KIND TARGET [JSON]' line")
    p_mut.add_argument("--out", default=None)
    p_ab = graph_sub.add_parser("abtest")
    p_ab.add_argument("--graphs", nargs="+", required=True)
    p_ab.add_argument("--tasks", required=True)
    p_ab.add_argument("--config", default=None)
    p_ab.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "arc":
            return cmd_arc(args)
        if args.command == "game":
            return cmd_game(args)
        if args.command == "graph":
            return cmd_graph(args)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (ConfigurationError, GraphValidationError, DslSyntaxError, MutationError,
            IntractableError, FileNotFoundError, json.JSONDecodeError) as exc:
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
