"""The timed process of one workload run.

Runs ``quorum`` commands in this interpreter through ``quorum.cli.main``,
one after another (a closed loop with one caller), and writes what it saw
to the work directory: one line of ``commands.jsonl`` per command,
written as the command finishes, and ``summary.json`` at the end.  Inputs
for each command are written just before it runs, outside the timed span, by code that never
calls into ``quorum``; no command is warmed up before it is timed.

    python3 benchmarks/worker.py --workload W --seed N --seconds S \
        --workdir DIR [--trace] [--rounds K] [--no-rerun] [--plan FILE]

Without ``--rounds`` the loop stops at the end of the first round that
brings the timed total to ``--seconds``; with it, exactly K rounds run.
A round is one ``eval`` command for the sweeps and seven short commands
for ``cli-pipeline``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
from pathlib import Path

import probe
import tracing
import workloads

# The host's speed is sampled at every round boundary, with more probes
# after a long round: one plus one per PROBE_SPACING_S of the round just
# timed, at most PROBE_BURST (and PROBE_BURST before the first round).
# A single 25 ms probe is a noisy sample, so a workload with few long
# rounds needs several at each point; one with many short rounds gets
# enough from one a round.
PROBE_SPACING_S = 1.0
PROBE_BURST = 5


def _sample_host(probes: list[float], round_s: float) -> None:
    for _ in range(min(PROBE_BURST, 1 + int(round_s / PROBE_SPACING_S))):
        probes.append(probe.probe())


def _rounds(workload: str, workdir: Path, seed: int, plan: str | None):
    if workload == "sweep-replay":  # inputs and reply cache were made before this process
        with open(plan) as fh:  # one command a line, read as it is needed
            for index, line in enumerate(fh):
                argv, spec = json.loads(line)
                spec["out"] = argv[argv.index("--out") + 1] = str(workdir / "out" / f"c{index:04d}")
                yield [(argv, spec)]
        return
    index = 0
    while True:
        if workload == "cli-pipeline":
            yield workloads.make_cli_round(workdir, seed, index)
        elif workload == "sweep-verified":
            yield [workloads.make_verified(workdir, seed, index)]
        else:
            yield [workloads.make_reference(workdir, seed, index)]
        index += 1


def _peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` is not used: across fork and exec Linux carries the
    parent's peak into the child's, so a large parent would show up here.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--no-rerun", action="store_true")
    parser.add_argument("--plan", default=None, help="replay commands made before this process")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    from quorum.cli import main as quorum_main

    tracer = tracing.install() if args.trace else None

    probe.probe()  # first call pays one-time costs; not a sample
    measured, rounds, probes, first = 0.0, 0, [], None
    round_s = PROBE_BURST * PROBE_SPACING_S  # a full burst before the first round
    source = _rounds(args.workload, workdir, args.seed, args.plan)
    # Each command's record goes to disk as it finishes, so what the
    # benchmark keeps does not grow with the run and stays out of the peak.
    log = open(workdir / "commands.jsonl", "w")
    while rounds < args.rounds if args.rounds else measured < args.seconds:
        batch = next(source, None)
        if batch is None:  # the replay plan ran out before the time did
            break
        # Start every round from a heap holding no garbage of the
        # benchmark's own, as a fresh `quorum` process would, and sample
        # the host's speed there (probe.py).
        gc.collect()
        _sample_host(probes, round_s)
        round_start = measured
        for argv_, spec in batch:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = quorum_main(argv_)
            wall = time.perf_counter() - start
            measured += wall
            log.write(json.dumps({"argv": argv_, "spec": spec, "exit": code, "wall_s": wall,
                                  "stdout": buf.getvalue()}) + "\n")
            log.flush()
            first = first or argv_
        del batch, spec, buf
        round_s = measured - round_start
        rounds += 1
    log.close()
    gc.collect()
    _sample_host(probes, round_s)
    peak_rss_kb = _peak_rss_kb()

    summary = {"rounds": rounds, "measured_s": measured, "peak_rss_kb": peak_rss_kb, "probe_s": probes}
    if tracer is not None:
        tracer.enabled = False
        workers = workloads.VER_PARALLEL if args.workload == "sweep-verified" else 1
        summary["layers"] = tracing.layer_metrics(tracer, workers)
        tracer.dump(workdir / "spans.npy")

    if args.workload in ("sweep-reference", "sweep-verified") and not args.no_rerun:
        # Untimed: the same config again, serially, into another directory.
        rerun_out = str(workdir / "rerun")
        argv_ = list(first)
        argv_[argv_.index("--out") + 1] = rerun_out
        if "--parallel" in argv_:
            argv_[argv_.index("--parallel") + 1] = "1"
        with contextlib.redirect_stdout(io.StringIO()):
            code = quorum_main(argv_)
        summary["rerun"] = {"exit": code, "out": rerun_out, "first_out": first[first.index("--out") + 1]}

    (workdir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
