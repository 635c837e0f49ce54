"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest
tests/test_acceptance.py -s`` to see them all) and enforces the stated
tolerance and runtime budget.
"""

import json
import math
import time
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest

from quorum.adapters import ScriptedSolver
from quorum.core import Task, normalize_answer, verify
from quorum.methods import best_of_n, consensus, self_consistency
from quorum.seeds import derive_seed


def report(number: int, ok: bool, detail: str):
    print(f"\ncriterion {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _yes_task():
    return Task(id="t", category="bench", prompt="?", answer_kind="text",
                reference=normalize_answer("yes", "text"))


def test_criterion_1_game_answers_match_formulas():
    from quorum.games import coinflip_solvable, ninja_guarantee, sequence_max_len

    start = time.monotonic()
    failures = []
    for m in range(2, 9):
        for n in range(2, 9):
            if m * n <= 16 and coinflip_solvable(m, n) != (m * n % 3 == 0):
                failures.append(f"coinflip({m},{n})")
    for bound, expected in ((2, 3), (3, 3), (4, 7)):
        if sequence_max_len(bound) != expected:
            failures.append(f"sequence({bound})")
    for n in range(2, 9):
        if ninja_guarantee(n) != 1 + int(math.log2(n)):
            failures.append(f"ninja({n})")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    report(1, ok, f"exact game answers vs closed forms, zero tolerance "
                  f"({elapsed:.1f}s < 60s){'; failed: ' + ', '.join(failures) if failures else ''}")


def test_criterion_2_turbo_oracle():
    from quorum.games import UnwinnableError, turbo_min_attempts

    start = time.monotonic()
    base = turbo_min_attempts(4, 3)
    values = {}
    for rows in (3, 4, 5):
        for cols in (2, 3, 4):
            if cols < rows - 2:
                continue
            try:
                values[(rows, cols)] = turbo_min_attempts(rows, cols)
            except UnwinnableError:
                continue  # boards with a diagonal wall have no finite value
    elapsed = time.monotonic() - start
    ok = base == 3 and all(v <= 3 for v in values.values()) and elapsed < 300
    report(2, ok, f"adversarial-search value (4,3) = {base} (expect 3); "
                  f"all winnable tractable sizes <= 3: {values} ({elapsed:.1f}s < 300s)")


def test_criterion_3_coinflip_parity_invariant():
    from quorum.games import label_parities, move_masks

    rng = np.random.default_rng(derive_seed(0, "acceptance", "parity"))
    violations = 0
    for _ in range(10_000):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        masks = move_masks(m, n)
        state = 0
        for _ in range(int(rng.integers(1, 12))):
            state ^= masks[int(rng.integers(len(masks)))]
            if len(set(label_parities(state, m, n))) != 1:
                violations += 1
    report(3, violations == 0,
           f"label-class head parities stay equal along 10,000 random move sequences "
           f"(violations: {violations})")


def test_criterion_4_aggregation_fixtures():
    from quorum.aggregate import or_aggregate, success_rate
    from quorum.fixtures import arc_eval_matrix, arc_eval_printed_max, load_fixture, olympiad_matrix

    matrix = arc_eval_matrix(consistent_only=True)
    printed = arc_eval_printed_max()
    bits = or_aggregate(matrix)
    mismatches = [t for t, b in zip(matrix.task_ids, bits) if printed[t] != bool(b)]
    flagged = load_fixture("arc_eval_16")["known_inconsistent_rows"]
    coverage = success_rate(olympiad_matrix())
    ok = (
        matrix.n_tasks >= 80
        and not mismatches
        and len(flagged) == 3
        and coverage == 7 / 9
    )
    report(4, ok, f"puzzle fixture: {matrix.n_tasks} transcribed rows, "
                  f"max == OR of 16 entries with zero mismatches (3 source rows flagged); "
                  f"olympiad fixture any-method coverage {coverage:.4f} == 7/9")


def test_criterion_5_best_of_n_law():
    start = time.monotonic()
    task = _yes_task()
    trials = 10_000
    worst = 0.0
    failures = []
    for p in (0.1, 0.3, 0.5):
        solver = ScriptedSolver("s", {"*": [("yes", p), ("no", 1 - p)]}, rng_seed=int(p * 100))
        rates = []
        for n in (1, 2, 4, 8, 16):
            hits = 0
            for trial in range(trials):
                result = best_of_n(solver, task, trial * 31 + n, n=n)
                hits += verify(task, result.candidate).is_pass
            rate = hits / trials
            expected = 1 - (1 - p) ** n
            worst = max(worst, abs(rate - expected))
            if abs(rate - expected) >= 0.02:
                failures.append(f"p={p} N={n}: {rate:.4f} vs {expected:.4f}")
            rates.append(rate)
        if rates != sorted(rates):
            failures.append(f"p={p}: rates not monotone {rates}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30
    report(5, ok, f"rejection-sampling law 1-(1-p)^N within +/-0.02 over {trials} trials, "
                  f"monotone in N (worst err {worst:.4f}, {elapsed:.1f}s < 30s)"
                  f"{'; ' + '; '.join(failures) if failures else ''}")


def test_criterion_6_self_consistency_binomial():
    task = _yes_task()
    solver = ScriptedSolver("s", {"*": [("yes", 0.6), ("no", 0.4)]}, rng_seed=6)
    trials = 10_000
    hits = 0
    for trial in range(trials):
        result = self_consistency(solver, task, n=5, seed=trial)
        hits += result.candidate.answer.payload == "yes"
    rate = hits / trials
    ok = abs(rate - 0.683) < 0.02
    report(6, ok, f"majority vote n=5 at p=0.6: {rate:.4f} within 0.683 +/- 0.02")


def test_criterion_7_arc_verifier_exactness():
    from quorum.arc import ArcTask, Grid, eval_dsl, parse_dsl, verify_program

    start = time.monotonic()
    rng = np.random.default_rng(derive_seed(0, "acceptance", "arc"))
    programs = ["rotate90", "rotate180", "flip_h", "flip_v", "transpose",
                "recolor(1->2)", "rotate90; flip_h", "identity",
                "rotate270", "flip_v; recolor(0->3)"]
    failures = []
    for idx, text in enumerate(programs):
        program = parse_dsl(text)
        pairs = []
        for _ in range(2):
            h, w = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            grid = Grid.from_rows([[int(rng.integers(10)) for _ in range(w)] for _ in range(h)])
            pairs.append((grid, eval_dsl(program, grid)))
        task = ArcTask(f"fx{idx}", tuple(pairs), ())
        if not verify_program(program, task).is_pass:
            failures.append(f"{text}: correct program rejected")
            continue
        for pi, (inp, out) in enumerate(task.train):
            for r in range(out.height):
                for c in range(out.width):
                    for delta in range(1, 10):
                        cells = [list(row) for row in out.cells]
                        cells[r][c] = (cells[r][c] + delta) % 10
                        perturbed_pair = (inp, Grid.from_rows(cells))
                        train = task.train[:pi] + (perturbed_pair,) + task.train[pi + 1:]
                        if verify_program(program, ArcTask(task.id, train, ())).is_pass:
                            failures.append(f"{text}: perturbation at pair {pi} ({r},{c}) not caught")

    group_law_failures = 0
    for _ in range(1000):
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g = Grid.from_rows([[int(rng.integers(10)) for _ in range(w)] for _ in range(h)])
        if eval_dsl(parse_dsl("rotate90; rotate90; rotate90; rotate90"), g) != g:
            group_law_failures += 1
        if eval_dsl(parse_dsl("flip_h; flip_v"), g) != eval_dsl(parse_dsl("rotate180"), g):
            group_law_failures += 1
        if eval_dsl(parse_dsl("transpose; transpose"), g) != g:
            group_law_failures += 1
    elapsed = time.monotonic() - start
    ok = not failures and group_law_failures == 0 and elapsed < 10
    report(7, ok, f"verifier exactness on 10 fixture tasks (every single-cell perturbation "
                  f"flips the verdict) and dihedral laws on 1,000 random grids "
                  f"({elapsed:.1f}s < 10s){'; ' + '; '.join(failures[:3]) if failures else ''}")


def test_criterion_8_eval_determinism(tmp_path):
    from quorum.cli import main

    tasks = [
        {"id": "t1", "category": "d", "prompt": "?", "answer_kind": "choice", "reference": "A"},
        {"id": "t2", "category": "d", "prompt": "?", "answer_kind": "choice", "reference": "B"},
    ]
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    config = {
        "solvers": [{"id": "s", "kind": "scripted",
                     "params": {"table": {"*": [["A", 0.5], ["B", 0.5]]}, "rng_seed": 4}}],
        "methods": [{"method_id": "zero_shot"}, {"method_id": "best_of_n", "n": 4}],
        "tasks": str(tmp_path / "tasks.json"),
        "seed": 11,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["eval", "--config", str(tmp_path / "config.json"), "--out", str(out)])
        assert code == 0
        [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
        digests.append(sha256((run_dir / "record.jsonl").read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    report(8, ok, f"fixed-seed eval runs serialize byte-identically ({digests[0][:12]}...)")


def test_criterion_9_consensus_hand_counts():
    rng = np.random.default_rng(derive_seed(0, "acceptance", "consensus"))
    failures = 0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        letters = [chr(ord("A") + int(rng.integers(4))) for _ in range(n)]
        answers = [normalize_answer(ch, "choice") for ch in letters]
        rep = consensus(answers)
        counts = {ch: letters.count(ch) for ch in set(letters)}
        modal = min(counts, key=lambda ch: (-counts[ch], ch))
        if rep.modal_answer.payload != modal:
            failures += 1
        if rep.c != Fraction(counts[modal], n):
            failures += 1
        if rep.diversity != 1 - rep.c:
            failures += 1
    report(9, failures == 0,
           f"consensus and diversity match hand-counts on 50 random multisets "
           f"with diversity == 1 - c exactly (failures: {failures})")


def test_criterion_10_graph_module():
    from quorum.graph import (
        Edge,
        GraphValidationError,
        Mutation,
        MutationError,
        NodeDef,
        PipelineGraph,
        bind,
        execute,
        mutate,
    )

    graph = PipelineGraph(
        nodes={
            "src": NodeDef("passthrough"),
            "left": NodeDef("passthrough"),
            "right": NodeDef("passthrough"),
            "joinpoint": NodeDef("join"),
        },
        edges=frozenset({
            Edge("src", "value", "left", "value"),
            Edge("src", "value", "right", "value"),
            Edge("left", "value", "joinpoint", "a"),
            Edge("right", "value", "joinpoint", "b"),
        }),
        inputs={"value": (("src", "value"),)},
        outputs={"joined": ("joinpoint", "value")},
    )
    rng = np.random.default_rng(derive_seed(0, "acceptance", "mutations"))
    cycles = 0
    working = graph
    kinds = ["add_edge", "remove_edge", "add_node", "remove_node", "edit_param"]
    for _ in range(1000):
        nodes = sorted(working.nodes)
        pick = lambda: nodes[int(rng.integers(len(nodes)))]
        kind = kinds[int(rng.integers(len(kinds)))]
        payload = {
            "add_edge": lambda: {"src": pick(), "out_port": "value", "dst": pick(),
                                 "in_port": ["value", "a", "b"][int(rng.integers(3))]},
            "remove_edge": lambda: {"src": pick(), "out_port": "value", "dst": pick(), "in_port": "value"},
            "add_node": lambda: {"node": f"n{int(rng.integers(10_000))}", "op": "const"},
            "remove_node": lambda: {"node": pick()},
            "edit_param": lambda: {"node": pick(), "key": "x", "value": int(rng.integers(5))},
        }[kind]()
        try:
            working = mutate(working, Mutation(kind, payload))
        except MutationError:
            continue
        try:
            working.topological_order()
        except GraphValidationError:
            cycles += 1

    outputs, trace = execute(bind(graph, {}), {"value": "v"})
    diamond_ok = (
        outputs["joined"] == "v\nv"
        and set(trace.executed_ids()) == {"src", "left", "right", "joinpoint"}
        and len(trace.entries) == 4
    )
    ok = cycles == 0 and diamond_ok
    report(10, ok, f"1,000 random mutations accepted no cyclic graph (cycles: {cycles}); "
                   f"diamond trace complete: {diamond_ok}")
