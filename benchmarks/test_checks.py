"""The benchmark's checkers accept real output and reject corrupted output.

    PYTHONPATH=src python -m pytest benchmarks/test_checks.py -q

Each test first runs a small real command and checks that its output
passes, so a checker that rejects everything fails here too; then it
corrupts one thing and checks that the checker notices.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from quorum.cli import main as quorum_main  # noqa: E402


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = quorum_main(argv)
    return code, buf.getvalue()


@pytest.fixture
def small_sweeps(monkeypatch):
    monkeypatch.setattr(workloads, "REF_TASKS_PER_COMMAND", 9)
    monkeypatch.setattr(workloads, "REPLAY_TASKS_PER_COMMAND", 9)


@pytest.fixture
def reference_run(tmp_path, small_sweeps):
    argv, spec = workloads.make_reference(tmp_path, seed=5, index=0)
    code, stdout = _run(argv)
    assert code == 0
    record = next(Path(spec["out"]).glob("*/record.jsonl"))
    return spec, stdout, record


def _rewrite(record: Path, edit) -> None:
    cells = [json.loads(line) for line in record.read_text().splitlines()]
    edit(cells)
    record.write_text("".join(json.dumps(c, sort_keys=True) + "\n" for c in cells))


def test_flipped_verdict_is_rejected(reference_run):
    spec, stdout, record = reference_run
    problems, counts = checks.check_eval(spec, stdout)
    assert problems == [] and counts["cells"] == 9 * 27

    def flip(cells):
        cell = next(c for c in cells if c["verdict"]["status"] in ("pass", "fail"))
        cell["verdict"]["status"] = "fail" if cell["verdict"]["status"] == "pass" else "pass"

    _rewrite(record, flip)
    problems, _ = checks.check_eval(spec, stdout)
    assert any("recomputed" in p for p in problems)


def test_selection_breaking_first_verified_else_modal_is_rejected(reference_run):
    spec, stdout, record = reference_run

    def pick_modal_over_verified(cells):
        for cell in cells:
            samples = cell["trace"]["samples"]
            verified = [s["answer"] for s in samples if s.get("verdict") == "pass"]
            others = [s["answer"] for s in samples if s["answer"] not in verified + [None]]
            if cell["solver_id"].startswith("best_of_n@") and verified and others:
                cell["candidate"]["answer"] = others[0]
                cell["verdict"]["status"] = "fail"
                return
        raise AssertionError("no best_of_n cell with both verified and unverified answers")

    _rewrite(record, pick_modal_over_verified)
    problems, _ = checks.check_eval(spec, stdout)
    assert any("rule gives" in p for p in problems)


def test_selection_ties_go_to_smallest_text():
    samples = [{"answer": "B"}, {"answer": "A"}, {"answer": "B"}, {"answer": "A"}]
    method = {"method_id": "self_consistency", "n": 4}
    assert checks.check_selection(method, "A", samples) == []
    assert checks.check_selection(method, "B", samples)


def test_wrong_predicted_grid_is_rejected(tmp_path):
    argv, spec = next(c for c in workloads.make_cli_round(tmp_path, seed=5, index=0)
                      if c[1]["kind"] == "arc_predict")
    code, _ = _run(argv)
    assert checks.check_cli(spec, code)[0] == []
    out = Path(spec["out"])
    grids = json.loads(out.read_text())
    grids[-1][0][0] = (grids[-1][0][0] + 1) % 10
    out.write_text(json.dumps(grids))
    assert checks.check_cli(spec, code)[0]


def test_cache_miss_during_replay_is_rejected(tmp_path, small_sweeps, monkeypatch):
    monkeypatch.delenv(workloads.REPLAY_KEY_ENV, raising=False)
    replay.fill_replay(tmp_path, seed=5, seconds=0.0)
    argv, spec = json.loads((tmp_path / "plan.jsonl").read_text())
    replies = json.loads((tmp_path / "replies.json").read_text())

    def replay_into(out: str) -> list[dict]:
        argv[argv.index("--out") + 1] = spec["out"] = out
        code, stdout = _run(argv)
        return [{"argv": argv, "spec": spec, "exit": code, "stdout": stdout}]

    problems, totals = run.check_run("sweep-replay", replay_into(str(tmp_path / "hit")), replies)
    assert problems == [] and totals["cells"] == 9 * 27

    victim = next((tmp_path / "cache").iterdir())
    victim.unlink()
    problems, _ = run.check_run("sweep-replay", replay_into(str(tmp_path / "miss")), replies)
    assert any("exited 2" in p for p in problems)


def test_replayed_answer_must_be_the_stored_reply(tmp_path, small_sweeps, monkeypatch):
    monkeypatch.delenv(workloads.REPLAY_KEY_ENV, raising=False)
    replay.fill_replay(tmp_path, seed=5, seconds=0.0)
    argv, spec = json.loads((tmp_path / "plan.jsonl").read_text())
    replies = json.loads((tmp_path / "replies.json").read_text())
    code, stdout = _run(argv)
    assert code == 0 and checks.check_eval(spec, stdout, replies)[0] == []
    seed = next(iter(replies))
    replies[seed] = "a reply the cache never held"
    assert any("stored reply" in p for p in checks.check_eval(spec, stdout, replies)[0])


def test_second_record_must_be_byte_identical(reference_run, tmp_path):
    spec, _, record = reference_run
    copy = tmp_path / "copy"
    shutil.copytree(spec["out"], copy)
    assert checks.check_same_record(spec["out"], str(copy)) == []
    twin = next(copy.glob("*/record.jsonl"))
    twin.write_bytes(twin.read_bytes().replace(b'"ts_ms": 0', b'"ts_ms": 1', 1))
    assert checks.check_same_record(spec["out"], str(copy))


def test_olympiad_game_answers_are_checked_against_the_game_value(tmp_path):
    game = {"game": "ninja", "n": 5}
    spec = {"kind": "graph_olympiad", "n": 4, "out": str(tmp_path / "graph_game.json"),
            "task": {"id": "game-0000", "answer_kind": "integer", "game": game}}

    def outcome(answer, passed):
        (tmp_path / "graph_game.json").write_text(json.dumps({"outputs": {"answer": answer, "passed": passed}}))
        problems, failed, _ = checks.check_cli(spec, 0)
        return bool(problems), failed

    assert outcome("3", True) == (False, False)
    assert outcome("3", False) == (False, True)  # the known fault: counted as failed, not hidden
    assert outcome("4", False) == (True, False)  # a wrong value is a defect
    assert outcome("4", True) == (True, False)


def test_best_of_n_law_rejects_an_impossible_pass_count():
    stats = [(True, 0.1)] * 200  # 200 passes where about 20 are expected
    assert checks.check_law(stats)
    assert checks.check_law([(i % 10 == 0, 0.1) for i in range(200)]) == []


def test_tracer_keeps_spans_of_concurrent_threads_apart():
    import threading

    import tracing

    tracer = tracing.Tracer()
    child = tracer.wrap(lambda: sum(range(50)), "seeds.derive_seed")
    parent = tracer.wrap(lambda: [child() for _ in range(3)], "adapters.sample", cell=True)
    threads = [threading.Thread(target=lambda: [parent() for _ in range(300)]) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.table()
    assert len(spans) == 6 * 300 * 4
    by_id = {row[0]: row for row in spans}
    parents = spans[spans[:, 1] == tracer.codes["adapters.sample"]]
    for row in spans[spans[:, 1] == tracer.codes["seeds.derive_seed"]]:
        up = by_id[row[4]]
        assert up[6] == row[6] and up[5] == row[5] and up[2] <= row[2] <= row[3] <= up[3]
    for row in parents:  # child time never exceeds the span it sits in
        assert 0 < row[7] <= row[3] - row[2]
    assert len(set(parents[:, 5])) == len(parents)  # one cell id per cell span
