"""No single-value mistake in an input ends in exit 3.

Each example replaces the value at one JSON path of one command's input
(the root included) by one of a dozen small JSON values, then runs the
command in process.  A mistake must stop with exit 2; an input that is
still well formed runs, passing (0) or failing verification (1).  The
examples are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json
import tempfile
from copy import deepcopy
from importlib.resources import files

import pytest
from hypothesis import given, settings, strategies as st

from quorum.cli import main
from test_cli import GOLDEN_CONFIG, GOLDEN_TASKS, ROT180_TASK

VALUES = (0, -1, 1.5, True, None, "", "x", "a|b", [], [1], [[1]], {}, {"a": 1})
TMP = "@TMP@"  # stands for the example's scratch directory in paths and argv

GAME_TASK = {"id": "g", "category": "game", "prompt": "ninja 6", "answer_kind": "integer",
             "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 6}}}
SOLVERS = {"solvers": [
    {"id": "synthesizer", "kind": "scripted", "params": {"table": {"*": [["rotate180", 1.0]]}}},
    {"id": "primary", "kind": "scripted", "params": {"table": {"*": [["3", 0.5], ["4", 0.5]]}}},
]}


def _template(name):
    return json.loads(files("quorum.fixtures").joinpath(f"graphs/{name}.json").read_text())


def _graph_run(graph, inputs):
    return {"graph.json": graph, "solvers.json": SOLVERS}, [
        "graph", "run", "--graph", f"{TMP}/graph.json", "--inputs", json.dumps(inputs),
        "--config", f"{TMP}/solvers.json"]


EVAL_GRAPH_CONFIG = {"solvers": SOLVERS["solvers"], "tasks": f"{TMP}/tasks.json",
                     "methods": [{"method_id": "zero_shot"}, {"graph": f"{TMP}/graph.json"}]}


def _eval_graph(config, graph):
    return {"config.json": config, "graph.json": graph, "tasks.json": [GAME_TASK]}, [
        "eval", "--config", f"{TMP}/config.json", "--out", f"{TMP}/runs"]


def _mutation_line(parts):
    """The ``KIND TARGET PAYLOAD`` line, with each part that is not a string as JSON."""
    parts = parts if isinstance(parts, list) else [parts]
    return " ".join(p if isinstance(p, str) else json.dumps(p) for p in parts)


# target -> (the document to mutate, doc -> (files to write by name, argv))
TARGETS = {
    "eval-config": ({**GOLDEN_CONFIG, "tasks": f"{TMP}/tasks.json"}, lambda doc: (
        {"config.json": doc, "tasks.json": GOLDEN_TASKS},
        ["eval", "--config", f"{TMP}/config.json", "--out", f"{TMP}/runs"])),
    "eval-tasks": (GOLDEN_TASKS, lambda doc: (
        {"config.json": {**GOLDEN_CONFIG, "tasks": f"{TMP}/tasks.json"}, "tasks.json": doc},
        ["eval", "--config", f"{TMP}/config.json", "--out", f"{TMP}/runs"])),
    "eval-graph-config": (EVAL_GRAPH_CONFIG, lambda doc: _eval_graph(doc, _template("olympiad_pipeline"))),
    "eval-graph-file": (_template("olympiad_pipeline"), lambda doc: _eval_graph(EVAL_GRAPH_CONFIG, doc)),
    "arc-verify": (ROT180_TASK, lambda doc: (
        {"puzzle.json": doc}, ["arc", "verify", "--task", f"{TMP}/puzzle.json", "--program", "rotate180"])),
    "graph-run-puzzle": (_template("puzzle_pipeline"), lambda doc: _graph_run(doc, {"task": ROT180_TASK})),
    "graph-run-puzzle-inputs": ({"task": ROT180_TASK},
                                lambda doc: _graph_run(_template("puzzle_pipeline"), doc)),
    "graph-run-olympiad": (_template("olympiad_pipeline"), lambda doc: _graph_run(doc, {"task": GAME_TASK})),
    "graph-run-olympiad-inputs": ({"task": GAME_TASK},
                                  lambda doc: _graph_run(_template("olympiad_pipeline"), doc)),
    "graph-mutate": (["add_node", "extra", {"op": "const", "params": {"value": 1}}], lambda doc: (
        {"graph.json": _template("puzzle_pipeline")},
        ["graph", "mutate", "--graph", f"{TMP}/graph.json", "--mutation", _mutation_line(doc),
         "--out", f"{TMP}/mutated.json"])),
}


def json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from json_paths(value, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run(build, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        written, argv = build(doc)
        for name, content in written.items():
            with open(f"{tmp}/{name}", "w") as fh:
                fh.write(json.dumps(content).replace(TMP, tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace(TMP, tmp) for arg in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_no_single_value_mistake_exits_3(target, data):
    doc, build = TARGETS[target]
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    value = data.draw(st.sampled_from(VALUES), label="value")
    code, err = _run(build, replaced(doc, path, value))
    assert code in (0, 1, 2), err


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_unmutated_inputs_run(target):
    doc, build = TARGETS[target]
    code, err = _run(build, doc)
    assert code == 0, err
