"""Core domain model: normalization, verification, run persistence."""

import json

import pytest
from hypothesis import given, strategies as st

from quorum.core import (
    AnswerValue,
    Candidate,
    CellRecord,
    Check,
    RunRecord,
    RunStore,
    Task,
    Verdict,
    VerifierBinding,
    normalize_answer,
    verify,
)
from quorum.errors import MalformedAnswerError, RecordParseError
from quorum.grids import Grid

# Hand-checked extraction corpus: raw answer text -> expected integer.
INTEGER_CORPUS = [
    ("n = 3", 3),
    ("The answer is n=3.", 3),
    ("3", 3),
    ("  42  ", 42),
    ("-7 is the answer", -7),
    ("answer: +15", 15),
    ("L = 2^{2024}-1 ... so 2", 2),
    ("we get 100 after simplifying", 100),
    ("0", 0),
    ("value -3, not 4", -3),
    ("k=1+2=3 final k: 1", 1),
    ("a1=5", 1),
    ("first 12 then 13", 12),
    ("x = -0", 0),
    ("The minimum is 2024", 2024),
    ("Answer. 7.", 7),
    ("≈ 19 exactly", 19),
    ("at most 50 moves", 50),
    ("2 coins", 2),
    ("therefore n equals 11", 11),
]


class TestNormalizeAnswer:
    def test_choice_trim_uppercase(self):
        assert normalize_answer("  e ", "choice") == AnswerValue("choice", "E")

    @pytest.mark.parametrize("raw", ["(b)", "B.", " b)", "[B]"])
    def test_choice_sheds_punctuation(self, raw):
        assert normalize_answer(raw, "choice").payload == "B"

    @pytest.mark.parametrize("raw,expected", INTEGER_CORPUS)
    def test_integer_extraction_corpus(self, raw, expected):
        assert normalize_answer(raw, "integer").payload == expected

    def test_text_identity_after_trim(self):
        assert normalize_answer("2,3,5", "text") == AnswerValue("text", "2,3,5")

    def test_text_collapses_whitespace_and_casefolds(self):
        assert normalize_answer("  All  Pairs\t(m, n) ", "text").payload == "all pairs (m, n)"

    def test_grid_from_text(self):
        value = normalize_answer("10\n01", "grid")
        assert value.payload == Grid.from_rows([[1, 0], [0, 1]])

    @pytest.mark.parametrize(
        "raw,kind",
        [("no digits here", "integer"), ("AB", "choice"), ("", "text"), ("5x\nyy", "grid")],
    )
    def test_malformed_raises(self, raw, kind):
        with pytest.raises(MalformedAnswerError):
            normalize_answer(raw, kind)

    @given(st.text(min_size=1), st.sampled_from(["choice", "text", "integer"]))
    def test_idempotent(self, raw, kind):
        try:
            once = normalize_answer(raw, kind)
        except MalformedAnswerError:
            return
        assert normalize_answer(once.canonical_text(), kind) == once

    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=6)
        .filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_grid_idempotent(self, rows):
        once = normalize_answer(rows, "grid")
        assert normalize_answer(once.canonical_text(), "grid") == once


class TestVerdict:
    def test_pass_requires_all_checks_passing(self):
        with pytest.raises(ValueError):
            Verdict("pass", (Check("a", True), Check("b", False)))

    def test_pass_requires_nonempty_checks(self):
        with pytest.raises(ValueError):
            Verdict("pass", ())

    def test_error_requires_cause(self):
        with pytest.raises(ValueError):
            Verdict("error", ())

    def test_factories(self):
        assert Verdict.passed([Check("a", True)]).is_pass
        assert Verdict.failed([Check("a", False)]).status == "fail"
        assert Verdict.errored("timeout").detail == "timeout"


ROT90_PUZZLE = {
    "train": [
        {"input": [[1, 2], [3, 4]], "output": [[3, 1], [4, 2]]},
        {"input": [[5, 0]], "output": [[5], [0]]},
    ],
    "test": [],
}


def _task(task_id="t", reference="3", kind="integer", **kw):
    ref = None if reference is None else normalize_answer(reference, kind)
    return Task(id=task_id, category="test", prompt="?", answer_kind=kind, reference=ref, **kw)


def _candidate(raw, kind="integer", **kw):
    defaults = dict(solver_id="s", method_id="m", seed=0)
    defaults.update(kw)
    answer = None if raw is None else normalize_answer(raw, kind)
    return Candidate(answer=answer, **defaults, error=kw.pop("error", None) if raw is None else None)


class TestVerify:
    def test_reference_pass(self):
        # The snail-board answer compared against a model's phrasing.
        assert verify(_task(reference="3"), _candidate("The answer is n=3")).is_pass

    def test_reference_fail(self):
        task = _task(reference="A", kind="choice")
        verdict = verify(task, _candidate("B", kind="choice"))
        assert verdict.status == "fail"

    def test_unverifiable(self):
        verdict = verify(_task(reference=None), _candidate("3"))
        assert verdict.status == "error"
        assert "unverifiable" in verdict.detail

    def test_error_candidate_propagates(self):
        cand = Candidate(answer=None, solver_id="s", method_id="m", seed=0, error="boom")
        assert verify(_task(), cand).status == "error"

    def test_arc_program_verifier(self):
        task = Task(
            id="rot",
            category="puzzle",
            prompt="?",
            answer_kind="text",
            verifier=VerifierBinding("arc_program", {"task": ROT90_PUZZLE}),
        )
        good = verify(task, _candidate("rotate90", kind="text"))
        assert good.is_pass
        bad = verify(task, _candidate("rotate180", kind="text"))
        assert bad.status == "fail"
        garbage = verify(task, _candidate("rotate45", kind="text"))
        assert garbage.status == "error"

    def test_game_answer_verifier(self):
        task = Task(
            id="tri",
            category="game",
            prompt="?",
            answer_kind="integer",
            verifier=VerifierBinding("game_answer", {"game": "ninja", "n": 6}),
        )
        assert verify(task, _candidate("k = 3")).is_pass
        assert verify(task, _candidate("4")).status == "fail"

    def test_task_only_work_runs_once_per_task(self, monkeypatch):
        # The exact game value and the parsed puzzle are bound when the
        # task is built, not recomputed by every verify.
        from quorum.arc.task import ArcTask
        from quorum.games import EXACT_GAMES

        calls = {"solve": 0, "parse": 0}
        ninja = EXACT_GAMES["ninja"]
        from_dict = ArcTask.from_dict.__func__

        def counting_solve(*params):
            calls["solve"] += 1
            return ninja.solve(*params)

        def counting_from_dict(cls, data, task_id):
            calls["parse"] += 1
            return from_dict(cls, data, task_id)

        monkeypatch.setitem(EXACT_GAMES, "ninja", ninja._replace(solve=counting_solve))
        monkeypatch.setattr(ArcTask, "from_dict", classmethod(counting_from_dict))
        game = Task(id="tri", category="game", prompt="?", answer_kind="integer",
                    verifier=VerifierBinding("game_answer", {"game": "ninja", "n": 6}))
        puzzle = Task(id="rot", category="puzzle", prompt="?", answer_kind="text",
                      verifier=VerifierBinding("arc_program", {"task": ROT90_PUZZLE}))
        for _ in range(10):
            assert verify(game, _candidate("3")).is_pass
            assert verify(puzzle, _candidate("rotate90", kind="text")).is_pass
        assert calls == {"solve": 1, "parse": 1}

    def test_deterministic_over_repetitions(self):
        task = _task(reference="3")
        cand = _candidate("3")
        verdicts = {repr(verify(task, cand)) for _ in range(100)}
        assert len(verdicts) == 1


class TestRunStore:
    def _record(self, run_id="r1", n_tasks=2, n_solvers=2):
        record = RunRecord(run_id, {"note": "test", "seed": 0})
        for i in range(n_tasks):
            for k in range(n_solvers):
                cand = _candidate(str(i + k), solver_id=f"s{k}")
                verdict = verify(_task(task_id=f"t{i}", reference=str(2 * i)), cand)
                record.add(CellRecord(f"t{i}", f"s{k}", cand, verdict, ts_ms=0))
        return record

    def test_round_trip_identity(self, tmp_path):
        store = RunStore(tmp_path)
        record = self._record()
        store.record_run(record)
        loaded = store.load_run("r1")
        assert loaded.run_id == record.run_id
        assert loaded.config == record.config
        assert loaded.cells == record.cells

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        store = RunStore(tmp_path)
        store.record_run(self._record())
        path = tmp_path / "r1" / "record.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with pytest.raises(RecordParseError) as excinfo:
            store.load_run("r1")
        assert excinfo.value.byte_offset > 0

    def test_matrix_rebuild_matches_independent_recount(self, tmp_path):
        # Oracle: recount pass bits straight from the serialized cells.
        from quorum.fixtures import load_fixture

        data = load_fixture("olympiad_methods")
        methods = [m for m in data["method_columns"] if m != "agent_graph"]
        record = RunRecord("fixture-run", {})
        for task_id, row in data["cells"].items():
            for method in methods:
                cell = row[method]
                cand = Candidate(
                    answer=normalize_answer("1" if cell["solved"] else "0", "integer"),
                    solver_id=method,
                    method_id=method,
                    seed=0,
                    elapsed_ms=0 if cell["seconds"] is None else cell["seconds"] * 1000,
                )
                verdict = (
                    Verdict.passed([Check("fixture", True)])
                    if cell["solved"]
                    else Verdict.failed([Check("fixture", False)])
                )
                record.add(CellRecord(task_id, method, cand, verdict, ts_ms=0))
        store = RunStore(tmp_path)
        store.record_run(record)
        loaded = store.load_run("fixture-run")
        matrix = loaded.to_matrix()
        assert matrix.n_tasks == 9 and matrix.n_solvers == 8

        raw = (tmp_path / "fixture-run" / "record.jsonl").read_text().splitlines()
        recount = {}
        for line in raw:
            obj = json.loads(line)
            recount[(obj["task_id"], obj["solver_id"])] = obj["verdict"]["status"] == "pass"
        for i, task_id in enumerate(matrix.task_ids):
            for k, solver_id in enumerate(matrix.solver_ids):
                assert matrix.solved[i, k] == recount[(task_id, solver_id)]
