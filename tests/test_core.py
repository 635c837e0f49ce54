"""Core domain model: normalization, verification, run persistence."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from quorum.core import (
    AnswerValue,
    Candidate,
    CellRecord,
    Check,
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
        [("no digits here", "integer"), ("AB", "choice"), ("", "text"), ("5x\nyy", "grid"),
         ([[1.9, True]], "grid"), ([[1, "3"]], "grid"), ([1], "grid")],
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

    def test_a_verdict_cannot_be_changed(self):
        # The per-answer memo hands one Verdict to every cell with that answer.
        import dataclasses

        verdict = Verdict.passed([Check("a", True)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.status = "fail"
        assert verdict.is_pass


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


# Per verifier kind: a task builder, an answer kind, a passing answer in
# two spellings that normalize alike, and a failing answer.
MEMO_CASES = {
    "reference": (lambda: _task(reference="3"), "integer", ("3", "n = 3"), "4"),
    "game_answer": (lambda: Task(id="tri", category="game", prompt="?", answer_kind="integer",
                                 verifier=VerifierBinding("game_answer", {"game": "ninja", "n": 6})),
                    "integer", ("3", "k = 3"), "4"),
    "arc_program": (lambda: Task(id="rot", category="puzzle", prompt="?", answer_kind="text",
                                 verifier=VerifierBinding("arc_program", {"task": ROT90_PUZZLE})),
                    "text", ("rotate90", "  ROTATE90\n"), "rotate180"),
}


@pytest.fixture()
def check_calls(monkeypatch):
    """Counts the underlying check of each verifier kind.  Tasks built
    after this fixture bind the counting checks."""
    import importlib
    from collections import Counter

    from quorum.arc import programs
    from quorum.core import model

    verify_module = importlib.import_module("quorum.core.verify")
    calls = Counter()

    def counting(kind, check):
        def counted(*args):
            calls[kind] += 1
            return check(*args)
        return counted

    monkeypatch.setattr(model, "check_reference", counting("reference", model.check_reference))
    monkeypatch.setattr(verify_module, "check_reference", counting("game_answer", verify_module.check_reference))
    monkeypatch.setattr(programs, "check_program_text", counting("arc_program", programs.check_program_text))
    return calls


class TestVerifyOncePerAnswer:
    @pytest.mark.parametrize("kind", MEMO_CASES)
    def test_each_distinct_answer_is_checked_once(self, check_calls, kind):
        build, answer_kind, (good, _), bad = MEMO_CASES[kind]
        task = build()
        for _ in range(10):
            assert verify(task, _candidate(good, kind=answer_kind)).is_pass
        assert verify(task, _candidate(bad, kind=answer_kind)).status == "fail"
        assert check_calls == {kind: 2}

    @pytest.mark.parametrize("kind", MEMO_CASES)
    def test_spellings_of_one_answer_share_a_check(self, check_calls, kind):
        build, answer_kind, spellings, _ = MEMO_CASES[kind]
        task = build()
        assert all(verify(task, _candidate(raw, kind=answer_kind)).is_pass for raw in spellings)
        assert check_calls == {kind: 1}

    @pytest.mark.parametrize("kind", MEMO_CASES)
    def test_a_remembered_verdict_equals_a_fresh_one(self, kind):
        build, answer_kind, (good, _), bad = MEMO_CASES[kind]
        task = build()
        for raw in (good, bad, good, bad):
            cand = _candidate(raw, kind=answer_kind)
            assert verify(task, cand) == verify(build(), cand)

    def test_tasks_built_from_one_entry_keep_separate_memos(self, check_calls):
        entry = {"id": "rot", "prompt": "?", "answer_kind": "text",
                 "verifier": {"kind": "arc_program", "params": {"task": ROT90_PUZZLE}}}
        first, second = Task.from_dict(entry), Task.from_dict(entry)
        assert first == second
        for task in (first, second, first, second):
            assert verify(task, _candidate("rotate90", kind="text")).is_pass
        assert check_calls == {"arc_program": 2}

    @pytest.mark.parametrize("kind", MEMO_CASES)
    def test_an_error_candidate_never_reaches_the_check(self, check_calls, kind):
        build, answer_kind, (good, _), _ = MEMO_CASES[kind]
        task = build()
        failed = Candidate(answer=normalize_answer(good, answer_kind), solver_id="s", method_id="m", seed=0,
                           error="timeout")
        assert verify(task, failed).status == "error"
        assert check_calls == {}
        assert verify(task, _candidate(good, kind=answer_kind)).is_pass

    def test_a_task_takes_no_check_of_its_own(self):
        # The check is bound from the verifier or the reference, never given.
        with pytest.raises(TypeError):
            Task(id="t", category="c", prompt="?", answer_kind="integer", check=lambda candidate: None)

    @pytest.mark.parametrize("kind", MEMO_CASES)
    def test_bound_check_pickles(self, kind):
        import pickle
        from functools import partial

        build, answer_kind, (good, _), bad = MEMO_CASES[kind]
        task = build()
        assert isinstance(task.check, partial)
        for raw in (bad, good):  # the first is remembered before the copy, the second after
            cand = _candidate(raw, kind=answer_kind)
            verdict = verify(task, cand)
            assert pickle.loads(pickle.dumps(task.check))(cand) == verdict


class TestRunStore:
    CONFIG = {"note": "test", "seed": 0}

    def _cells(self, n_tasks=2, n_solvers=2):
        for i in range(n_tasks):
            for k in range(n_solvers):
                cand = _candidate(str(i + k), solver_id=f"s{k}")
                verdict = verify(_task(task_id=f"t{i}", reference=str(2 * i)), cand)
                yield CellRecord(f"t{i}", f"s{k}", cand, verdict, ts_ms=0)

    def _store(self, tmp_path):
        """The store and the id of a run of ``CONFIG`` stored in it."""
        store = RunStore(tmp_path)
        run_id = store.create_run(self.CONFIG)
        store.record_run(run_id, list(self._cells()))
        return store, run_id

    def test_round_trip_identity(self, tmp_path):
        store = RunStore(tmp_path)
        cells = list(self._cells())
        run_id = store.create_run(self.CONFIG)
        matrix = store.record_run(run_id, cells)
        loaded = store.load_run(run_id)
        assert loaded.run_id == run_id
        assert loaded.config == self.CONFIG
        assert loaded.cells == cells
        assert loaded.to_matrix() == matrix

    def test_the_run_id_is_named_by_the_config_text(self, tmp_path):
        store, run_id = self._store(tmp_path)
        text = (tmp_path / run_id / "config.json").read_text()
        assert text == json.dumps(self.CONFIG, sort_keys=True) + "\n"
        assert run_id == "run-" + hashlib.sha256(text.removesuffix("\n").encode()).hexdigest()[:12]

    def test_cells_from_a_generator_are_stored_as_from_a_list(self, tmp_path):
        listed, streamed = RunStore(tmp_path / "listed"), RunStore(tmp_path / "streamed")
        run_id = listed.create_run(self.CONFIG)
        matrix = listed.record_run(run_id, list(self._cells(3, 2)))
        assert streamed.record_run(streamed.create_run(self.CONFIG), self._cells(3, 2)) == matrix
        assert matrix.task_ids == ["t0", "t1", "t2"] and matrix.solver_ids == ["s0", "s1"]
        for name in ("config.json", "record.jsonl"):
            assert (tmp_path / "streamed" / run_id / name).read_bytes() == \
                (tmp_path / "listed" / run_id / name).read_bytes()
        assert not (tmp_path / "streamed" / run_id / "record.jsonl.tmp").exists()

    def test_truncated_file_reports_byte_offset(self, tmp_path):
        store, run_id = self._store(tmp_path)
        path = tmp_path / run_id / "record.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        with pytest.raises(RecordParseError) as excinfo:
            store.load_run(run_id)
        assert excinfo.value.byte_offset > 0

    @pytest.mark.parametrize("content", [b"\xff", b"{", b"[" * 100_000, b"[1]"],
                             ids=["not-utf8", "not-json", "too-deep", "not-an-object"])
    def test_corrupt_config_is_a_record_parse_error(self, tmp_path, content):
        store, run_id = self._store(tmp_path)
        (tmp_path / run_id / "config.json").write_bytes(content)
        with pytest.raises(RecordParseError) as excinfo:
            store.load_run(run_id)
        assert excinfo.value.byte_offset == 0

    @pytest.mark.parametrize("edit", ["too-deep", "candidate-not-an-object", "answer-not-of-its-kind"])
    def test_corrupt_cell_line_is_a_record_parse_error(self, tmp_path, edit):
        store, run_id = self._store(tmp_path)
        path = tmp_path / run_id / "record.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        cell = json.loads(rest[0])
        if edit == "candidate-not-an-object":
            cell["candidate"] = "x"
        elif edit == "answer-not-of-its-kind":
            cell["candidate"]["answer"] = "no digits"
        line = "[" * 100_000 if edit == "too-deep" else json.dumps(cell)
        path.write_text(first + line + "\n" + "".join(rest[1:]))
        with pytest.raises(RecordParseError) as excinfo:
            store.load_run(run_id)
        assert excinfo.value.byte_offset == len(first.encode())

    def test_matrix_rebuild_matches_independent_recount(self, tmp_path):
        # Oracle: recount pass bits straight from the serialized cells.
        from quorum.fixtures import load_fixture

        data = load_fixture("olympiad_methods")
        methods = [m for m in data["method_columns"] if m != "agent_graph"]
        cells = []
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
                cells.append(CellRecord(task_id, method, cand, verdict, ts_ms=0))
        store = RunStore(tmp_path)
        run_id = store.create_run({})
        store.record_run(run_id, cells)
        loaded = store.load_run(run_id)
        matrix = loaded.to_matrix()
        assert matrix.n_tasks == 9 and matrix.n_solvers == 8

        raw = (tmp_path / run_id / "record.jsonl").read_text().splitlines()
        recount = {}
        for line in raw:
            obj = json.loads(line)
            recount[(obj["task_id"], obj["solver_id"])] = obj["verdict"]["status"] == "pass"
        for i, task_id in enumerate(matrix.task_ids):
            for k, solver_id in enumerate(matrix.solver_ids):
                assert matrix.solved[i][k] == recount[(task_id, solver_id)]
