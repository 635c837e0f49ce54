"""Each value's rules are checked where it enters the program.

Grids, answers and programs from outside are checked by their readers
(``Grid.from_rows``/``from_text``, ``normalize_answer``, ``parse_dsl``);
the constructors behind them trust what the program built itself.  So
every reader must still reject bad input, and no code may build those
values past the readers.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from quorum.arc import ArcTask, ExternalProgram, Grid, verify_program
from quorum.core import Candidate, CellRecord, RunStore, Verdict, normalize_answer
from quorum.errors import MalformedAnswerError, RecordParseError

SRC = Path(__file__).resolve().parents[1] / "src" / "quorum"

# Each bad grid as rows and as wire text; text cannot spell the color 10,
# so its bad color is a digit outside ASCII 0..9.
BAD_GRIDS = {"ragged-row": ([[1, 2], [3]], "12\n3"), "color-outside-0-9": ([[1, 10]], "1²")}


def _answer_list(tmp_path, rows, text):
    with pytest.raises(MalformedAnswerError, match="bad grid answer"):
        normalize_answer(rows, "grid")


def _answer_text(tmp_path, rows, text):
    with pytest.raises(MalformedAnswerError, match="bad grid answer"):
        normalize_answer(text, "grid")


def _external_output(tmp_path, rows, text):
    printer = ExternalProgram((sys.executable, "-c", f"import sys; sys.stdin.read(); print({text!r})"))
    g = Grid.from_rows([[1]])
    verdict = verify_program(printer, ArcTask("t", ((g, g),), ()))
    assert verdict.status == "error" and "bad output grid" in verdict.detail


def _stored_answer(tmp_path, rows, text):
    store = RunStore(tmp_path)
    candidate = Candidate(normalize_answer([[1, 2], [3, 4]], "grid"), "s", "zero_shot", 0)
    run_id = store.create_run({})
    store.record_run(run_id, [CellRecord("t", "s", candidate, Verdict.errored("unverifiable"))])
    path = tmp_path / run_id / "record.jsonl"
    cell = json.loads(path.read_text())
    cell["candidate"]["answer"] = rows
    path.write_text(json.dumps(cell) + "\n")
    with pytest.raises(RecordParseError, match="bad grid answer"):
        store.load_run(run_id)


# Puzzle files are the fourth reader; tests/test_arc.py covers them.
READERS = {"answer-list": _answer_list, "answer-text": _answer_text,
           "external-output": _external_output, "stored-answer": _stored_answer}


@pytest.mark.parametrize("bad", sorted(BAD_GRIDS))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_of_outside_grids_rejects_a_bad_grid(tmp_path, reader, bad):
    READERS[reader](tmp_path, *BAD_GRIDS[bad])


# Constructor -> the modules that may call it: its readers, and the DSL
# interpreter, which builds grids only from grids that passed them.
TRUSTED_CONSTRUCTORS = {"AnswerValue": {"core/answers.py"}, "Grid": {"grids.py", "arc/dsl.py"}}


def test_values_are_built_only_behind_their_readers():
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))  # Grid(...) or grids.Grid(...)
                if name in TRUSTED_CONSTRUCTORS and module not in TRUSTED_CONSTRUCTORS[name]:
                    calls.append(f"{module}:{node.lineno} calls {name}(...)")
    assert calls == []
