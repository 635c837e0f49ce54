"""Run one workload of the quorum benchmark and print its result.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: sweep-reference, sweep-verified, sweep-replay, cli-pipeline
(see benchmarks/README.md).  The timed commands run in a fresh worker
process (worker.py); for sweep-replay, replay.py fills the reply cache
in a process of its own before that.  This process never runs quorum:
it measures interpreter set-up, checks every output, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
worker runs with spans around every layer and the metrics are the
per-layer ones, plus the tracing overhead against a second, untraced
worker that runs the same commands.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # pairs before the worker and again after it, so set-up is sampled twice in a run
# Set-up is reported at a nominal host speed.  Each sample of `import
# quorum.cli` is paired with a fresh interpreter that imports only the
# third-party and standard modules quorum.cli pulls in; nothing of the
# repository runs in it, so a change to quorum moves the scaled set-up
# exactly as it moves the raw one, while the host's drift cancels.
SETUP_REFERENCE = "import numpy, requests, argparse, csv, dataclasses, concurrent.futures"
SETUP_REFERENCE_NOMINAL_S = 0.30  # its typical time on the 2-CPU machine the benchmark was written on
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150
KEEP = ("summary.json", "spans.npy", "spans.npy.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(workloads.REPLAY_KEY_ENV, None)  # a replay cache miss must fail, never reach a network
    return env


def _interpreter_s(env: dict, code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def measure_setup(env: dict, pairs: list[tuple[float, float]]) -> None:
    """Time fresh interpreters importing quorum.cli, each after one that
    imports only its dependencies: (quorum.cli s, reference s) pairs."""
    for _ in range(SETUP_REPEATS):
        reference = _interpreter_s(env, SETUP_REFERENCE)
        pairs.append((_interpreter_s(env, "import quorum.cli"), reference))


def measure_importtime(env: dict) -> dict[str, float]:
    """Cumulative import ms of quorum.cli, numpy and requests (-X importtime)."""
    samples = {"quorum.cli": [], "numpy": [], "requests": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quorum.cli"],
                              env=env, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1000)
    return {f"setup.import_{name.replace('.', '_')}_ms": statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def run_worker(args, workdir: Path, env: dict, trace: bool, rounds: int = 0, rerun: bool = True) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if not rerun:
        cmd.append("--no-rerun")
    if args.workload == "sweep-replay":
        cmd += ["--plan", str(args.workdir / "plan.jsonl")]
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
    return json.loads((workdir / "summary.json").read_text())


def read_commands(workdir: Path):
    """The commands of one worker run, one at a time, in the order they ran."""
    with open(workdir / "commands.jsonl") as fh:
        for line in fh:
            yield json.loads(line)


def check_run(workload: str, commands, replies, rerun: dict | None = None) -> tuple[list[str], dict]:
    """Check every command of one worker run and count its work.

    A cell is one task under one method@solver column of a sweep, or one
    short command of cli-pipeline; bytes are record.jsonl bytes for a
    sweep and the bytes of each command's --out for cli-pipeline.
    """
    problems: list[str] = []
    totals = {"attempted": 0, "failed": 0, "cells": 0, "samples": 0, "bytes": 0, "walls_ms": []}
    law, agree = [], []
    for command in commands:
        spec = command["spec"]
        totals["walls_ms"].append(command.get("wall_s", 0.0) * 1000)
        try:
            if spec["kind"] == "eval":
                if command["exit"] != 0:  # every cell of the command is lost
                    lost = len(spec["tasks"]) * len(spec["methods"]) * len(spec["solvers"])
                    totals["attempted"] += lost
                    totals["failed"] += lost
                    problems.append(f"quorum {' '.join(command['argv'])} exited {command['exit']}")
                    continue
                found, counts = checks.check_eval(spec, command["stdout"], replies)
                problems += found
                if counts:
                    totals["attempted"] += counts["cells"]
                    totals["cells"] += counts["cells"]
                    totals["samples"] += counts["samples"]
                    totals["bytes"] += counts["record_bytes"]
                    law += counts["law"]
                    agree += counts["agree"]
            else:
                found, failed, samples = checks.check_cli(spec, command["exit"])
                problems += found
                totals["attempted"] += 1
                totals["cells"] += 1
                totals["failed"] += int(failed)
                totals["samples"] += samples
                totals["bytes"] += checks.out_bytes(spec)
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
            problems.append(f"quorum {' '.join(command['argv'])}: unreadable output: {exc!r}")
    if workload == "sweep-reference":
        problems += checks.check_law(law)
    if agree:
        problems += checks.check_law(agree, "self_consistency samples all agreed in")
    if rerun is not None:
        if rerun["exit"] != 0:
            problems.append(f"untimed rerun exited {rerun['exit']}")
        else:
            problems += checks.check_same_record(rerun["first_out"], rerun["out"])
    return problems, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "quorum" / "cli.py").is_file():
        print(f"benchmark error: no quorum sources under {SRC}", file=sys.stderr)
        return 2

    args.workdir = HERE / "work" / args.workload
    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    env = child_env()
    setup_pairs = []
    if not args.trace:
        measure_setup(env, setup_pairs)
    layers = measure_importtime(env) if args.trace else {}
    replies = None
    if args.workload == "sweep-replay":  # in a process of its own: this one never runs quorum
        subprocess.run([sys.executable, str(HERE / "replay.py"), "--workdir", str(args.workdir),
                        "--seed", str(args.seed), "--seconds", str(args.seconds)],
                       env=env, check=True, timeout=WORKER_TIMEOUT_S, stdout=sys.stderr)
        replies = json.loads((args.workdir / "replies.json").read_text())

    summary = run_worker(args, args.workdir, env, trace=bool(args.trace))
    if not args.trace:
        measure_setup(env, setup_pairs)
    problems, totals = check_run(args.workload, read_commands(args.workdir), replies, summary.get("rerun"))
    if args.trace:
        untraced_dir = args.workdir / "untraced"
        untraced = run_worker(args, untraced_dir, env, trace=False, rounds=summary["rounds"], rerun=False)
        if args.workload != "sweep-replay":
            for a, b in zip(read_commands(args.workdir), read_commands(untraced_dir)):
                if a["spec"]["kind"] == "eval":
                    problems += checks.check_same_record(a["spec"]["out"], b["spec"]["out"])
        overhead = summary["measured_s"] - untraced["measured_s"]
        layers.update(summary["layers"])
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100 * overhead / untraced["measured_s"]

    for problem in problems[:40]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        seconds = summary["measured_s"]
        walls = totals["walls_ms"]
        # Linear interpolation between order statistics (numpy's default
        # percentile).  A sweep run has 2 to 20 commands, and the default
        # "exclusive" method would put its p90 at or beyond the slowest.
        deciles = statistics.quantiles(walls, n=10, method="inclusive") if len(walls) > 1 else walls * 9
        raw = {
            "setup_s": statistics.median(q for q, _ in setup_pairs),
            "cells_per_s": totals["cells"] / seconds,
            "samples_per_s": totals["samples"] / seconds,
            "cmd_ms_p50": statistics.median(walls),
            "cmd_ms_p90": deciles[8],
        }
        # Timing metrics at nominal host speed: > 1 means slower.  The
        # worker's rates scale by its probe (probe.py), set-up by the
        # paired reference interpreter (SETUP_REFERENCE).
        slow = statistics.mean(summary["probe_s"]) / probe.NOMINAL_S
        setup = statistics.median(q / ref for q, ref in setup_pairs) * SETUP_REFERENCE_NOMINAL_S
        print(f"raw timings: {json.dumps(raw)}; host slowness {slow:.3f} "
              f"(set-up {statistics.median(ref for _, ref in setup_pairs) / SETUP_REFERENCE_NOMINAL_S:.3f})",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "cells_per_s": {"value": raw["cells_per_s"] * slow, "unit": "cells/s"},
            "samples_per_s": {"value": raw["samples_per_s"] * slow, "unit": "samples/s"},
            "peak_rss_mb": {"value": summary["peak_rss_kb"] / 1024, "unit": "MB"},
            "record_bytes_per_cell": {"value": totals["bytes"] / max(1, totals["cells"]), "unit": "B"},
            "cmd_ms_p50": {"value": raw["cmd_ms_p50"] / slow, "unit": "ms"},
            "cmd_ms_p90": {"value": raw["cmd_ms_p90"] / slow, "unit": "ms"},
        }
    for name in os.listdir(args.workdir):
        if name not in KEEP:
            path = args.workdir / name
            shutil.rmtree(path) if path.is_dir() else path.unlink()
    print(json.dumps({"correct": not problems, "attempted": max(1, totals["attempted"]), "failed": totals["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
