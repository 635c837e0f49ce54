"""The benchmark's per-layer tracer still sees every layer of ``quorum eval``
and of ``quorum arc verify`` / ``predict``.

``benchmarks/tracing.py`` wraps functions where their callers look them
up, so renaming or inlining one of those lookups silently zeroes a
per-layer metric.  ``install()`` patches module globals for the life of
the process, so the traced run happens in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from quorum.methods import METHODS

ROOT = Path(__file__).resolve().parents[1]

ROT180_TASK = {
    "train": [
        {"input": [[1, 2], [3, 4]], "output": [[4, 3], [2, 1]]},
        {"input": [[5, 0, 1]], "output": [[1, 0, 5]]},
    ],
    "test": [{"input": [[1, 1], [0, 2]], "output": [[2, 0], [1, 1]]}],
}

TASKS = [
    {"id": "r", "category": "ref", "prompt": "Pick one.", "answer_kind": "choice", "reference": "A"},
    {"id": "p", "category": "puzzle", "prompt": "Write the program.", "answer_kind": "text",
     "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}},
    {"id": "g", "category": "game", "prompt": "ninja 6", "answer_kind": "integer",
     "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 6}}},
]

TRACED_RUN = """
import json, sys
import tracing
from quorum.cli import main

config, out, puzzle, result = sys.argv[1:]
tracer = tracing.install()
code = main(["eval", "--config", config, "--parallel", "2", "--out", out])
codes = [main(["arc", command, "--task", puzzle, "--program", "rotate180"]) for command in ("verify", "predict")]
names = tracer.table()[:, 1].tolist()
spans = {name: names.count(number) for name, number in tracer.codes.items()}
with open(result, "w") as fh:
    json.dump({"code": code, "arc_codes": codes, "cells": spans["cell"], "spans": spans,
               "metrics": tracing.layer_metrics(tracer, 1)}, fh)
"""


def test_benchmark_tracer_sees_every_eval_layer(tmp_path):
    (tmp_path / "tasks.json").write_text(json.dumps(TASKS))
    (tmp_path / "puzzle.json").write_text(json.dumps(ROT180_TASK))
    table = {"r": [["A", 0.5], ["B", 0.5]], "p": [["rotate180", 0.5], ["identity", 0.5]],
             "g": [["3", 0.5], ["4", 0.5]]}
    two_stage = {"*": [["think", 0.5, [["A", 0.5], ["3", 0.5]]], ["guess", 0.5, [["rotate180", 1.0]]]]}
    config = {
        "solvers": [{"id": "s", "kind": "scripted", "params": {"table": table, "two_stage": two_stage}}],
        "methods": [
            {"method_id": "best_of_n", "n": 2}, {"method_id": "zero_shot"}, {"method_id": "self_consistency", "n": 3},
            {"method_id": "mixture_of_agents"}, {"method_id": "mcts", "n": 4}, {"method_id": "rto", "n": 2},
            {"method_id": "prover_verifier", "rounds": 2, "params": {"verifier_solver_id": "s"}},
            {"method_id": "plan_search", "n": 2}, {"method_id": "leap", "params": {"examples": [["1+1", "2"]]}},
        ],
        "tasks": str(tmp_path / "tasks.json"),
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "benchmarks"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "config.json"), str(tmp_path / "runs"),
         str(tmp_path / "puzzle.json"), str(result)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["code"] == 0 and traced["arc_codes"] == [0, 0]
    assert traced["cells"] == len(TASKS) * len(config["methods"])
    # One span per cell of each method: a method that called another wrapped
    # public combinator would count twice.
    assert {m["method_id"] for m in config["methods"]} == set(METHODS)
    for method_id in METHODS:
        assert traced["spans"][f"methods.{method_id}"] == len(TASKS), method_id
    metrics = traced["metrics"]
    for layer in ("core.verify.reference", "core.verify.arc_program", "core.verify.game_answer",
                  "adapters.sample", "seeds.derive_seed"):
        assert metrics[f"{layer}.calls"] > 0, layer
    for metric in ("arc.programs.verify_program.ms", "arc.dsl.eval.calls", "arc.dsl.parse.us"):
        assert metrics[metric] > 0, metric
