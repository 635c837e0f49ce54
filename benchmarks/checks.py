"""Checkers for the outputs of each workload.

Every check recomputes what the program should have produced from the
benchmark's own inputs (``spec``) and its own oracles, never from a
stored copy of earlier output.  A checker returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import oracle

FIRST_VERIFIED = ("best_of_n", "plan_search")
SAMPLES_PER_METHOD = {"zero_shot": lambda m: 1, "leap": lambda m: 1, "best_of_n": lambda m: m["n"],
                      "self_consistency": lambda m: m["n"], "plan_search": lambda m: m["n"],
                      "mcts": lambda m: m["n"]}
LAW_SIGMAS = 4.0  # tolerance of the frequency checks, fixed before any run


def modal(answers: list[str]) -> str:
    """Most common answer; ties go to the smallest canonical text."""
    counts = Counter(answers)
    return min(counts, key=lambda a: (-counts[a], a))


def expected_status(fact: dict, answer) -> str:
    """Verdict status for one canonical answer text (None: no answer)."""
    if answer is None:
        return "error"
    if "puzzle" in fact:
        if oracle.parse(answer) is None:
            return "error"
        return "pass" if oracle.program_passes(answer, fact["puzzle"]) else "fail"
    if "game" in fact:
        want = oracle.game_value(fact["game"])
    else:
        want = oracle.normalize(fact["reference"], fact["answer_kind"])
    return "pass" if answer == want else "fail"


def _status_ok(got: str, want: str) -> bool:
    # A program that is not a solution may fail or stop with an error
    # (e.g. a grid leaving bounds); passing is the property that matters.
    return got == want or (want == "fail" and got == "error")


def _canonical(candidate: dict):
    answer = candidate["answer"]
    return None if answer is None else str(answer)


def check_selection(method: dict, candidate, samples: list[dict]) -> list[str]:
    """First-verified-else-modal and modal selection, re-derived from the trace."""
    mid = method["method_id"]
    problems = []
    if mid in SAMPLES_PER_METHOD and len(samples) != SAMPLES_PER_METHOD[mid](method):
        problems.append(f"{mid}: {len(samples)} samples, expected {SAMPLES_PER_METHOD[mid](method)}")
    answered = [s["answer"] for s in samples if s["answer"] is not None]
    if mid in FIRST_VERIFIED:
        passed = [s["answer"] for s in samples if s.get("verdict") == "pass"]
        want = passed[0] if passed else (modal(answered) if answered else None)
    elif mid == "self_consistency":
        want = modal(answered) if answered else None
    else:
        return problems
    if candidate != want:
        problems.append(f"{mid}: selected {candidate!r}, rule gives {want!r}")
    return problems


def law_bounds(stats: list[tuple[bool, float]]) -> tuple[int, float, float]:
    """(observed, expected, tolerance) for independent events, each given
    as (happened, probability)."""
    observed = sum(1 for ok, _ in stats if ok)
    expected = sum(q for _, q in stats)
    sigma = math.sqrt(sum(q * (1 - q) for _, q in stats))
    return observed, expected, LAW_SIGMAS * sigma + 1.0


def answer_odds(task: dict, solver_id: str) -> dict:
    """Probability of each canonical answer (None: malformed) in a table."""
    odds: dict = {}
    for raw, p in task["tables"][solver_id]:
        key = oracle.normalize(raw, task["answer_kind"])
        odds[key] = odds.get(key, 0.0) + p
    return odds


def support(task: dict, solver_id: str) -> set:
    """Canonical answers a solver's table can produce for a task."""
    return {oracle.normalize(raw, task["answer_kind"]) for raw, _ in task["tables"][solver_id]}


def check_eval(spec: dict, stdout: str, replies: dict | None = None) -> tuple[list[str], dict]:
    """Check one ``quorum eval`` run directory against its inputs.

    Returns the problems and counts: cells, samples, and for best_of_n the
    per-cell (passed, predicted pass probability) pairs.
    """
    problems: list[str] = []
    facts = {f["id"]: f for f in spec["tasks"]}
    methods = {m["method_id"]: m for m in spec["methods"]}
    run_dirs = [p for p in Path(spec["out"]).iterdir() if (p / "record.jsonl").exists()]
    if len(run_dirs) != 1:
        return [f"{spec['out']}: expected one run directory, found {len(run_dirs)}"], {}
    run_dir = run_dirs[0]
    cells = [json.loads(line) for line in (run_dir / "record.jsonl").read_text().splitlines()]
    columns = [f"{m['method_id']}@{sid}" for m in spec["methods"] for sid in sorted(spec["solvers"])]
    expected_keys = [(t, c) for t in facts for c in columns]
    if [(c["task_id"], c["solver_id"]) for c in cells] != expected_keys:
        problems.append(f"{run_dir}: cells are not one per task and column in canonical order")
        return problems, {}

    n_samples, law, agree = 0, [], []
    solved, supports = {}, {}
    for cell in cells:
        fact = facts[cell["task_id"]]
        kind = fact["answer_kind"]
        method_id, sid = cell["solver_id"].split("@")
        method = methods[method_id]
        where = f"{cell['task_id']} {cell['solver_id']}"
        answer = _canonical(cell["candidate"])
        status = cell["verdict"]["status"]
        want = expected_status(fact, answer)
        if not _status_ok(status, want):
            problems.append(f"{where}: verdict {status}, recomputed {want}")
        solved[(cell["task_id"], cell["solver_id"])] = status == "pass"
        samples = cell["trace"]["samples"]
        n_samples += len(samples)
        for s in samples:
            if "verdict" in s and not _status_ok(s["verdict"], expected_status(fact, s["answer"])):
                problems.append(f"{where} slot {s['slot']}: sample verdict {s['verdict']} is wrong")
            if replies is not None:
                reply = replies.get(str(s["seed"]))
                if reply is None:
                    problems.append(f"{where}: sample seed {s['seed']} has no stored reply")
                elif oracle.normalize(reply, kind) != s["answer"]:
                    problems.append(f"{where}: sample {s['answer']!r} is not the stored reply {reply!r}")
            elif s["answer"] is not None:
                source = s["slot"] if method_id == "mixture_of_agents" else sid
                if (fact["id"], source) not in supports:
                    supports[fact["id"], source] = support(fact, source)
                if s["answer"] not in supports[fact["id"], source]:
                    problems.append(f"{where}: sample {s['answer']!r} is not in the solver's table")
        problems += [f"{where}: {p}" for p in check_selection(method, answer, samples)]
        if method_id == "best_of_n" and replies is None and "reference" in fact:
            p = answer_odds(fact, sid).get(oracle.normalize(fact["reference"], kind), 0.0)
            law.append((status == "pass", 1 - (1 - p) ** method["n"]))
        if method_id == "self_consistency" and "reference" in fact:
            # Independent slots: all n samples agree with probability sum(q^n).
            unanimous = len({s["answer"] for s in samples}) == 1
            agree.append((unanimous, sum(q ** method["n"] for q in answer_odds(fact, sid).values())))

    problems += check_aggregates(run_dir, list(facts), columns, solved, stdout)
    return problems, {"cells": len(cells), "samples": n_samples, "law": law, "agree": agree,
                      "record_bytes": (run_dir / "record.jsonl").stat().st_size}


def check_aggregates(run_dir: Path, task_ids, columns, solved: dict, stdout: str) -> list[str]:
    """matrix.json, the printed success rate and coverage.csv against the
    row-OR of the verdicts."""
    problems = []
    matrix = json.loads((run_dir / "matrix.json").read_text())
    want = [[int(solved[(t, c)]) for c in columns] for t in task_ids]
    if matrix["task_ids"] != task_ids or matrix["solver_ids"] != columns or matrix["solved"] != want:
        problems.append(f"{run_dir}: matrix.json does not match the verdicts")
    rows = [any(r) for r in want]
    rate = sum(rows) / len(rows)
    if f"success rate (any column): {rate:.4f}" not in stdout:
        problems.append(f"{run_dir}: printed success rate is not {rate:.4f}")
    last = (run_dir / "coverage.csv").read_text().splitlines()[-1].split(",")
    if int(last[1]) != sum(rows) or last[2] != f"{rate:.6f}":
        problems.append(f"{run_dir}: coverage.csv ends at {last[1:]}, row-OR gives {sum(rows)}")
    return problems


def check_law(stats, what: str = "best_of_n passed") -> list[str]:
    """Observed count of events against the sum of their probabilities."""
    observed, expected, tol = law_bounds(stats)
    if abs(observed - expected) > tol:
        return [f"{what} {observed} cells, the solver tables predict {expected:.1f} +- {tol:.1f}"]
    return []


def check_same_record(first_out: str, second_out: str) -> list[str]:
    """Byte-identical ``record.jsonl`` from two runs of one config."""
    a = sorted(Path(first_out).glob("*/record.jsonl"))
    b = sorted(Path(second_out).glob("*/record.jsonl"))
    if len(a) != 1 or len(b) != 1 or a[0].name != b[0].name:
        return [f"cannot pair records under {first_out} and {second_out}"]
    if a[0].read_bytes() != b[0].read_bytes():
        return [f"{b[0]} differs from {a[0]}"]
    return []


# -- cli-pipeline ---------------------------------------------------------------


def _grids_equal(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want)


def check_cli(spec: dict, exit_code: int) -> tuple[list[str], bool, int]:
    """Check one short command.  Returns (problems, failed, samples drawn).

    ``failed`` marks the one known fault: the olympiad template on a game
    task reports ``passed: false`` for the exact answer.
    """
    kind = spec["kind"]
    out = Path(spec["out"])
    if "task_file" in spec:
        spec = {**spec, "puzzle": json.loads(Path(spec["task_file"]).read_text())}
    if kind == "arc_verify":
        ok = oracle.program_passes(spec["program"], spec["puzzle"])
        verdict = json.loads(out.read_text())
        if exit_code != (0 if ok else 1) or (verdict["status"] == "pass") != ok:
            return [f"arc verify {spec['program']!r}: exit {exit_code}, numpy check says {ok}"], False, 0
        return [], False, 0
    if kind == "arc_predict":
        ops = oracle.parse(spec["program"])
        want = [oracle.apply(ops, p["input"]) for p in spec["puzzle"]["test"]]
        got = json.loads(out.read_text())
        if exit_code != 0 or len(got) != len(want) or not all(map(_grids_equal, got, want)):
            return [f"arc predict {spec['program']!r}: grids differ from the numpy transform"], False, 0
        return [], False, 0
    if kind == "arc_augment":
        return check_augment(spec, exit_code), False, 0
    result = json.loads(out.read_text())["outputs"]
    if kind == "graph_puzzle":
        ok = oracle.program_passes(spec["program"], spec["puzzle"])
        if exit_code != 0 or result["passed"] is not ok:
            return [f"graph run puzzle_pipeline: passed={result['passed']}, numpy check says {ok}"], False, 1
        return [], False, 1
    # graph_olympiad: its best_of_n node always draws spec["n"] samples
    task = spec["task"]
    answer = result["answer"]
    problems = [] if exit_code == 0 else [f"graph run olympiad {task['id']}: exit {exit_code}"]
    if "game" in task:
        # The solver always gives the exact value, so any other answer is a
        # defect.  The known fault is an exact answer reported as not passed.
        want = oracle.game_value(task["game"])
        if answer != want:
            problems.append(f"graph run olympiad {task['id']}: answer {answer!r}, the game's value is {want!r}")
            return problems, False, spec["n"]
        return problems, result["passed"] is not True, spec["n"]
    if answer not in support(task, "primary"):
        problems.append(f"graph run olympiad {task['id']}: answer {answer!r} not in the solver's table")
    ok = answer == oracle.normalize(task["reference"], task["answer_kind"])
    if result["passed"] is not ok:
        problems.append(f"graph run olympiad {task['id']}: passed={result['passed']}, reference says {ok}")
    return problems, False, spec["n"]


def check_augment(spec: dict, exit_code: int) -> list[str]:
    """The written variants are exactly the distinct dihedral images."""
    elements = ("r0", "r90", "r180", "r270", "fr0", "fr90", "fr180", "fr270")
    puzzle = spec["puzzle"]
    grids = [g for p in puzzle["train"] + puzzle["test"] for g in (p["input"], p["output"])]
    images = [oracle.dihedral_images(g) for g in grids]
    want, seen = {}, set()
    for e, element in enumerate(elements):
        key = tuple(im[e].tobytes() + bytes(im[e].shape) for im in images)
        if key not in seen:
            seen.add(key)
            want[f"{spec['task_id']}_{element}.json"] = [im[e] for im in images]
    out = Path(spec["out"])
    files = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if exit_code != 0 or files != sorted(want):
        return [f"arc augment: wrote {files}, expected {sorted(want)}"]
    for name, expected in want.items():
        variant = json.loads((out / name).read_text())
        got = [g for p in variant["train"] + variant["test"] for g in (p["input"], p["output"])]
        if len(got) != len(expected) or not all(map(_grids_equal, got, expected)):
            return [f"arc augment: {name} is not the dihedral image of the task"]
    return []


def out_bytes(spec: dict) -> int:
    out = Path(spec["out"])
    if out.is_dir():
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return out.stat().st_size
