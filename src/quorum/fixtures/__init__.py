"""Bundled reference fixtures.

``arc_eval_16.json`` holds a transcribed 400-task x 16-solver
correctness matrix with its printed any-solver column and footer counts
(three source rows are internally inconsistent and flagged).
``olympiad_methods.json`` holds nine olympiad combinatorics tasks
against eight inference methods plus an agent pipeline, with runtimes.
"""

from __future__ import annotations

import json
from importlib.resources import files

from ..aggregate.matrix import ResultMatrix
from ..graph.model import PipelineGraph


def load_fixture(name: str) -> dict:
    return json.loads(files(__package__).joinpath(f"{name}.json").read_text())


def arc_eval_matrix(consistent_only: bool = False) -> ResultMatrix:
    """The 400 x 16 evaluation matrix (optionally dropping flagged rows)."""
    data = load_fixture("arc_eval_16")
    rows = data["rows"]
    if consistent_only:
        bad = set(data["known_inconsistent_rows"])
        rows = [r for r in rows if r["task"] not in bad]
    return ResultMatrix(
        [r["task"] for r in rows],
        data["solver_ids"],
        [r["cells"] for r in rows],
    )


def arc_eval_printed_max() -> dict[str, bool]:
    data = load_fixture("arc_eval_16")
    return {r["task"]: r["max"] for r in data["rows"]}


def olympiad_matrix() -> ResultMatrix:
    """Nine tasks x methods matrix with elapsed milliseconds."""
    data = load_fixture("olympiad_methods")
    columns = data["method_columns"]
    task_ids = [t["id"] for t in data["tasks"]]
    solved, elapsed = [], []
    for task_id in task_ids:
        row = data["cells"][task_id]
        solved.append([row[c]["solved"] for c in columns])
        elapsed.append([None if row[c]["seconds"] is None else row[c]["seconds"] * 1000 for c in columns])
    return ResultMatrix(task_ids, columns, solved, elapsed)


def olympiad_zero_shot_baseline() -> ResultMatrix:
    """One-column matrix: the second model's zero-shot answers."""
    data = load_fixture("olympiad_methods")
    task_ids = [t["id"] for t in data["tasks"]]
    cells = data["zero_shot_baseline"]
    return ResultMatrix(
        task_ids,
        ["zero_shot_baseline"],
        [[cells[t]["solved"]] for t in task_ids],
        [[cells[t]["seconds"] * 1000] for t in task_ids],
    )


def graph_template(name: str) -> PipelineGraph:
    payload = json.loads(files(__package__).joinpath(f"graphs/{name}.json").read_text())
    return PipelineGraph.from_json(payload)
