"""Command-line interface: sweeps, puzzle commands, games, graphs."""

import ast
import itertools
import json
import os
import subprocess
import sys
import threading
from hashlib import sha256
from pathlib import Path


import pytest

from quorum.cli import main

ROT180_TASK = {
    "train": [
        {"input": [[1, 2], [3, 4]], "output": [[4, 3], [2, 1]]},
        {"input": [[5, 0, 1]], "output": [[1, 0, 5]]},
    ],
    "test": [{"input": [[1, 1], [0, 2]], "output": [[2, 0], [1, 1]]}],
}

ASYMMETRIC_TASK = {
    "train": [
        {"input": [[1, 2, 3], [4, 5, 6]], "output": [[1, 2, 3], [4, 5, 6]]},
        {"input": [[7, 8], [0, 1]], "output": [[7, 8], [0, 1]]},
    ],
    "test": [{"input": [[2, 2, 2], [3, 3, 3]]}],
}


@pytest.fixture()
def eval_setup(tmp_path):
    tasks = [
        {"id": "t1", "category": "demo", "prompt": "first?", "answer_kind": "choice", "reference": "A"},
        {"id": "t2", "category": "demo", "prompt": "second?", "answer_kind": "choice", "reference": "B"},
    ]
    task_file = tmp_path / "tasks.json"
    task_file.write_text(json.dumps(tasks))
    config = {
        "solvers": [
            {"id": "right", "kind": "scripted",
             "params": {"table": {"t1": [["A", 1.0]], "t2": [["B", 1.0]]}}},
            {"id": "half", "kind": "scripted",
             "params": {"table": {"*": [["A", 0.5], ["B", 0.5]]}, "rng_seed": 2}},
        ],
        "methods": [{"method_id": "zero_shot"}, {"method_id": "self_consistency", "n": 3}],
        "tasks": str(task_file),
        "seed": 7,
    }
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    return config_file, tmp_path


class TestEval:
    def test_sweep_writes_artifacts(self, eval_setup, capsys):
        config_file, tmp_path = eval_setup
        out = tmp_path / "runs"
        assert main(["eval", "--config", str(config_file), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "task" in stdout and "zero_shot@right" in stdout
        run_dirs = [p for p in out.iterdir() if p.name.startswith("run-")]
        assert len(run_dirs) == 1
        run_dir = run_dirs[0]
        assert (run_dir / "record.jsonl").exists()
        config = (run_dir / "config.json").read_text()  # one line, whose sha256 names the run
        assert config.count("\n") == 1 and run_dir.name == "run-" + sha256(config[:-1].encode()).hexdigest()[:12]
        assert (run_dir / "matrix.txt").exists()
        curve = (run_dir / "coverage.csv").read_text()
        assert curve.splitlines()[0] == "solver,cum_solved,cum_fraction"
        cells = [json.loads(l) for l in (run_dir / "record.jsonl").read_text().splitlines()]
        assert len(cells) == 2 * 4  # 2 tasks x (2 methods x 2 solvers)

    def test_rerun_is_byte_identical(self, eval_setup):
        config_file, tmp_path = eval_setup
        digests = []
        for attempt in ("one", "two"):
            out = tmp_path / attempt
            assert main(["eval", "--config", str(config_file), "--out", str(out)]) == 0
            [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
            record = (run_dir / "record.jsonl").read_bytes()
            config = (run_dir / "config.json").read_bytes()
            digests.append((sha256(record).hexdigest(), sha256(config).hexdigest(), run_dir.name))
        assert digests[0] == digests[1]

    def test_an_edited_tasks_file_names_a_new_run(self, eval_setup):
        config_file, tmp_path = eval_setup
        out = tmp_path / "runs"
        assert main(["eval", "--config", str(config_file), "--out", str(out)]) == 0
        first = _run_dir(out)
        record = (first / "record.jsonl").read_bytes()
        tasks = json.loads((tmp_path / "tasks.json").read_text())
        tasks[1]["reference"] = "A"
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        assert main(["eval", "--config", str(config_file), "--out", str(out)]) == 0
        runs = [p for p in out.iterdir() if p.name.startswith("run-")]
        assert len(runs) == 2 and (first / "record.jsonl").read_bytes() == record

    def test_parallel_matches_serial(self, eval_setup):
        config_file, tmp_path = eval_setup
        records = []
        for label, flags in (("serial", []), ("parallel", ["--parallel", "4"])):
            out = tmp_path / label
            assert main(["eval", "--config", str(config_file), "--out", str(out), *flags]) == 0
            [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
            records.append((run_dir / "record.jsonl").read_bytes())
        assert records[0] == records[1]

    def test_scripted_cells_run_on_the_main_thread(self, eval_setup, monkeypatch):
        from quorum.adapters import ScriptedSolver

        threads = []
        solve = ScriptedSolver.solve

        def recording_solve(self, *args):
            threads.append(threading.current_thread())
            return solve(self, *args)

        monkeypatch.setattr(ScriptedSolver, "solve", recording_solve)
        config_file, tmp_path = eval_setup
        assert main(["eval", "--config", str(config_file), "--out", str(tmp_path / "r"), "--parallel", "4"]) == 0
        assert threads and set(threads) == {threading.main_thread()}

    def test_http_model_cells_run_on_the_pool(self, eval_setup, monkeypatch):
        from quorum.adapters import ChatClient

        threads = []

        def fake_complete(self, prompt, seed=0):  # a function of (model, prompt, seed); opens no socket
            threads.append(threading.current_thread())
            return "AB"[sha256(f"{self.model}|{prompt}|{seed}".encode()).digest()[0] % 2]

        monkeypatch.setattr(ChatClient, "complete", fake_complete)
        config_file, tmp_path = eval_setup
        config = json.loads(config_file.read_text())
        config["solvers"] = [{"id": model, "kind": "http-model", "params": {
            "base_url": "http://127.0.0.1:9", "model": model, "api_key_env": None}} for model in ("m1", "m2")]
        config_file.write_text(json.dumps(config))
        records = []
        for label, flags in (("serial", []), ("parallel", ["--parallel", "4"])):
            threads.clear()
            out = tmp_path / label
            assert main(["eval", "--config", str(config_file), "--out", str(out), *flags]) == 0
            on_main = {t is threading.main_thread() for t in threads}
            assert on_main == ({True} if label == "serial" else {False})
            [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
            cells = [json.loads(line) for line in (run_dir / "record.jsonl").read_text().splitlines()]
            for cell in cells:
                del cell["ts_ms"], cell["candidate"]["elapsed_ms"]
            records.append(cells)
        assert len(records[0]) == 2 * 4 and records[0] == records[1]

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "task_edit,method_edit,solver_edit",
        [
            ({"answer_kind": "bogus"}, {}, {}),
            ({"prompt": None}, {}, {}),
            ({"answer_kind": "integer", "reference": None,
              "verifier": {"kind": "game_answer", "params": {"game": "coinflip", "m": 2, "n": 3}}}, {}, {}),
            ({"answer_kind": "text", "reference": None, "verifier": {"kind": "arc_program", "params": {}}}, {}, {}),
            ({}, {"method_id": "prover_verifier", "params": {"verifier_solver_id": "nobody"}}, {}),
            ({}, {"method_id": "mixture_of_agents", "params": {"extra_solver_ids": ["nobody"]}}, {}),
            ({}, {}, {"id": None}),
            ({}, {"n": "3"}, {}),
            ({}, {"rounds": "2"}, {}),
            ({"answer_kind": "text", "reference": None,
              "verifier": {"kind": "arc_program",
                           "params": {"task": {"train": [{"input": [[1, 2], [3]], "output": [[1]]}]}}}}, {}, {}),
            ({"answer_kind": "integer", "reference": None,
              "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 9}}}, {}, {}),
            ({"answer_kind": "integer", "reference": None,
              "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": "6"}}}, {}, {}),
            ({}, {}, {"kind": "http-model", "params": {"model": "m"}}),
            ({}, {}, {"kind": "http-model", "params": {"base_url": "http://127.0.0.1:9"}}),
            ({}, {"method_id": "mixture_of_agents", "weights": ["a"]}, {}),
            ({}, {"method_id": "mixture_of_agents", "weights": [0.5, 0.5]}, {}),
            ({"answer_kind": "text", "reference": None,
              "verifier": {"kind": "arc_program", "params": {"task": {"train": [1]}}}}, {}, {}),
            ({"answer_kind": "text", "reference": None,
              "verifier": {"kind": "arc_program",
                           "params": {"task": {"train": [{"input": [[1]], "output": [[1]]}], "test": 5}}}}, {}, {}),
            ({"answer_kind": "integer", "reference": None,
              "verifier": {"kind": "game_answer", "params": {"game": ["ninja"], "n": 6}}}, {}, {}),
        ],
        ids=["unknown-answer-kind", "no-prompt", "coinflip-as-integer", "puzzle-without-task",
             "unknown-verifier-solver", "unknown-extra-solver", "solver-without-id", "n-as-text",
             "rounds-as-text", "ragged-puzzle-grid", "intractable-game", "game-parameter-as-text",
             "http-model-without-base-url", "http-model-without-model", "weights-as-text",
             "mixture-weight-count", "puzzle-train-entry-not-an-object", "puzzle-test-not-a-list",
             "game-not-a-string"],
    )
    def test_config_mistakes_are_exit_2(self, tmp_path, capsys, task_edit, method_edit, solver_edit):
        def edited(entry, edit):  # None drops a key
            return {k: v for k, v in {**entry, **edit}.items() if v is not None}

        task = edited({"id": "t1", "category": "demo", "prompt": "first?", "answer_kind": "choice", "reference": "A"},
                      task_edit)
        (tmp_path / "tasks.json").write_text(json.dumps([task]))
        config = {
            "solvers": [edited({"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}},
                               solver_edit)],
            "methods": [{"method_id": "zero_shot", **method_edit}],
            "tasks": str(tmp_path / "tasks.json"),
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda config, tasks: config.update(solvers=[]),
            lambda config, tasks: config.update(methods=[]),
            lambda config, tasks: config["solvers"].append(dict(config["solvers"][0])),
            lambda config, tasks: tasks.append(dict(tasks[0])),
            lambda config, tasks: config["methods"][0].update(method_id="mixture_of_agents", weights=5),
            lambda config, tasks: config["solvers"][0].update(params=[]),
            lambda config, tasks: config["methods"][0].update(params=[]),
            lambda config, tasks: config["methods"][0].update(N=8),
            lambda config, tasks: config["solvers"][0]["params"].update(table={"*": [["A", "x"]]}),
            lambda config, tasks: config["solvers"][0]["params"].update(table={"*": [["A"]]}),
            lambda config, tasks: config["solvers"][0]["params"].update(two_stage={"*": [["think", 1.0]]}),
            lambda config, tasks: tasks.__setitem__(0, 1),
            lambda config, tasks: tasks[0].update(verifier={"kind": "game_answer", "params": []}),
            lambda config, tasks: config.update(seed="x"),
            lambda config, tasks: config["methods"][0].update(method_id="prover_verifier"),
            lambda config, tasks: 1,
            lambda config, tasks: config.update(tasks=5),
            lambda config, tasks: config["solvers"][0]["params"].update(rng_seed="x"),
            lambda config, tasks: config["methods"][0].update(method_id="leap", params={"examples": 5}),
            lambda config, tasks: config["methods"][0].update(method_id="leap", params={"examples": [["a"]]}),
            lambda config, tasks: config["methods"][0].update(method_id="rto", params={"forward_prompt": 5}),
            lambda config, tasks: config["methods"][0].update(method_id="rto", params={"forward_prompt": "Solve"}),
            lambda config, tasks: config["methods"][0].update(
                method_id="rto", params={"backward_prompt": "Restate {output} as {x}"}),
            lambda config, tasks: config.update(out=5),
            lambda config, tasks: config["solvers"][0].update(id=5),
            lambda config, tasks: tasks[0].update(id=5),
            lambda config, tasks: tasks[0].pop("id"),
            lambda config, tasks: config["solvers"].__setitem__(0, {"id": "s", "kind": "http-model", "params": {
                "base_url": "http://127.0.0.1:9", "model": "m", "api_key_env": None, "temprature": 0.5}}),
            lambda config, tasks: config["methods"][0].update(n=3),
            lambda config, tasks: config["methods"][0].update(method_id="mixture_of_agents", n=3),
            lambda config, tasks: config["methods"][0].update(
                method_id="prover_verifier", n=3, params={"verifier_solver_id": "s"}),
            lambda config, tasks: config["methods"][0].update(method_id="leap", n=3),
            lambda config, tasks: config["methods"][0].update(method_id="best_of_n", rounds=2),
            lambda config, tasks: config["methods"][0].update(method_id="best_of_n", weights=[1.0]),
            lambda config, tasks: config["methods"][0].update(method_id="rto", params={"foward_prompt": "{input}"}),
            lambda config, tasks: config["methods"][0].update(
                method_id="rto", params={"forward_prompt": "Solve {input:{x}}"}),
            lambda config, tasks: config["methods"][0].update(params={"extra_solver_ids": ["s"]}),
            lambda config, tasks: config["methods"][0].update(method_id="mixture_of_agents", weights=[]),
            lambda config, tasks: config["methods"][0].update(
                method_id="prover_verifier", params={"verifier_solver_id": {"a": 1}}),
            lambda config, tasks: config["methods"][0].update(method_id=["zero_shot"]),
            lambda config, tasks: config["solvers"][0]["params"].update(table={"*": [["A", float("nan")]]}),
            lambda config, tasks: config["solvers"][0]["params"].update(tabel={"*": [["A", 1.0]]}),
            lambda config, tasks: tasks[0].update(prompt=True),
            lambda config, tasks: tasks[0].update(category=5),
            lambda config, tasks: tasks[0].update(verifier={"kind": ["game_answer"]}),
            lambda config, tasks: config.update(seed=1.5),
            *(lambda config, tasks, setting=setting: config["solvers"].__setitem__(0, {
                "id": "s", "kind": "http-model",
                "params": {"base_url": "http://127.0.0.1:9", "model": "m", "api_key_env": None, **setting}})
              for setting in ({"max_in_flight": -1}, {"max_in_flight": 0}, {"cache_dir": 5}, {"max_retries": "3"},
                              {"max_retries": -1}, {"timeout_s": "x"}, {"timeout_s": 0}, {"api_key_env": 5},
                              {"temperature": "hot"}, {"max_tokens": 0})),
        ],
        ids=["no-solvers", "no-methods", "duplicate-solver-id", "duplicate-task-id", "weights-as-number",
             "solver-params-as-list", "method-params-as-list", "unknown-method-key", "probability-as-text",
             "table-entry-without-probability", "two-stage-entry-without-table", "task-not-an-object",
             "verifier-params-as-list", "seed-as-text", "prover-verifier-without-judge", "tasks-file-not-a-list",
             "tasks-path-as-number", "rng-seed-as-text", "leap-examples-as-number", "leap-example-not-a-pair",
             "rto-forward-prompt-as-number", "rto-forward-prompt-without-input",
             "rto-backward-prompt-with-another-field", "out-as-number", "solver-id-as-number",
             "task-id-as-number", "task-without-id", "http-model-unknown-param", "n-on-zero-shot",
             "n-on-mixture-of-agents", "n-on-prover-verifier", "n-on-leap", "rounds-off-prover-verifier",
             "weights-off-mixture-of-agents", "misspelt-rto-param", "rto-field-nested-in-a-spec",
             "extra-solvers-off-mixture-of-agents",
             "empty-weights", "judge-id-as-object", "method-id-as-list", "nan-probability",
             "misspelt-scripted-param", "prompt-not-a-string", "category-not-a-string", "verifier-kind-as-list",
             "seed-as-float", "http-max-in-flight-negative", "http-max-in-flight-zero", "http-cache-dir-as-number",
             "http-max-retries-as-text", "http-max-retries-negative", "http-timeout-as-text", "http-timeout-zero",
             "http-api-key-env-as-number", "http-temperature-as-text", "http-max-tokens-zero"],
    )
    def test_config_shape_mistakes_are_exit_2_before_any_cell(self, tmp_path, capsys, monkeypatch, edit):
        import quorum.cli

        cells = []
        run_method = quorum.cli.run_method
        monkeypatch.setattr(quorum.cli, "run_method", lambda *a, **kw: cells.append(a) or run_method(*a, **kw))
        tasks = [{"id": "t1", "category": "demo", "prompt": "first?", "answer_kind": "choice", "reference": "A"}]
        config = {
            "solvers": [{"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}}],
            "methods": [{"method_id": "zero_shot"}],
            "tasks": str(tmp_path / "tasks.json"),
        }
        tasks = edit(config, tasks) or tasks  # an edit may return the tasks file's whole content
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert cells == [] and not (tmp_path / "r").exists()

    def test_repeated_method_id_gets_distinct_columns(self, tmp_path, capsys):
        tasks = [{"id": "t", "category": "", "prompt": "?", "answer_kind": "choice", "reference": "A"}]
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        config = {
            "solvers": [{"id": "s", "kind": "scripted",
                         "params": {"table": {"*": [["A", 0.5], ["B", 0.5]]}}}],
            "methods": [{"method_id": "best_of_n", "n": 2}, {"method_id": "best_of_n", "n": 8}],
            "tasks": str(tmp_path / "tasks.json"),
            "seed": 1,
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        assert "best_of_n#1@s" in out and "best_of_n#2@s" in out

    def test_each_distinct_program_is_checked_once_per_task(self, tmp_path, capsys, monkeypatch):
        # Two program texts, one in two spellings: best_of_n checks its
        # eight samples and its pick, self_consistency its pick, yet each
        # normalized program runs on the train pairs at most once.
        from quorum.arc import programs

        checked, check_program_text = [], programs.check_program_text

        def counting(text, puzzle):
            checked.append(text)
            return check_program_text(text, puzzle)

        monkeypatch.setattr(programs, "check_program_text", counting)
        tasks = [{"id": "rot", "prompt": "?", "answer_kind": "text",
                  "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}}]
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        table = {"*": [["rotate180", 0.4], ["ROTATE180", 0.3], ["flip_h", 0.3]]}
        config = {
            "solvers": [{"id": "s", "kind": "scripted", "params": {"table": table}}],
            "methods": [{"method_id": "best_of_n", "n": 8}, {"method_id": "self_consistency", "n": 5}],
            "tasks": str(tmp_path / "tasks.json"),
            "seed": 3,
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 0
        assert "best_of_n@s" in capsys.readouterr().out
        assert sorted(checked) == sorted(set(checked))
        assert set(checked) <= {"rotate180", "flip_h"}

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_puzzle_graph_column_parses_each_puzzle_once(self, tmp_path, capsys, monkeypatch, k):
        # The task's check parses its puzzle when the task is built; the
        # graph's prompt and check nodes read that puzzle, not the raw dict.
        from quorum.arc.task import ArcTask
        from quorum.fixtures import graph_template

        parsed, from_dict = [], ArcTask.from_dict.__func__

        def counting(cls, data, task_id):
            parsed.append(task_id)
            return from_dict(cls, data, task_id)

        monkeypatch.setattr(ArcTask, "from_dict", classmethod(counting))
        tasks = [{"id": f"p{i}", "prompt": "?", "answer_kind": "text",
                  "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}} for i in range(k)]
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        graph_template("puzzle_pipeline").save(tmp_path / "puzzle.json")
        config = {
            "solvers": [{"id": "primary", "kind": "scripted", "params": {"table": {"*": [["yes", 1.0]]}}},
                        {"id": "synthesizer", "kind": "scripted", "params": {"table": {"*": [["rotate180", 1.0]]}}}],
            "methods": [{"graph": str(tmp_path / "puzzle.json")}],
            "tasks": str(tmp_path / "tasks.json"),
            "seed": 3,
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 0
        assert "puzzle_pipeline" in capsys.readouterr().out
        assert parsed == [f"p{i}" for i in range(k)]

    def test_rto_template_with_a_conversion_runs(self, tmp_path, capsys):
        # The config check is the one template rule, so a template it
        # accepts never stops the sweep inside a cell.
        tasks = [{"id": "t", "category": "", "prompt": "?", "answer_kind": "choice", "reference": "A"}]
        (tmp_path / "tasks.json").write_text(json.dumps(tasks))
        config = {
            "solvers": [{"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}}],
            "methods": [{"method_id": "zero_shot"},
                        {"method_id": "rto", "params": {"forward_prompt": "Solve {input!r}",
                                                        "backward_prompt": "Restate {output:>3}"}}],
            "tasks": str(tmp_path / "tasks.json"),
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 0
        assert "rto@s" in capsys.readouterr().out


GOLDEN_TASKS = [
    {"id": "r-choice", "category": "ref", "prompt": "Pick one.", "answer_kind": "choice", "reference": "A"},
    {"id": "r-int", "category": "ref", "prompt": "How many?", "answer_kind": "integer", "reference": 42},
    {"id": "r-grid", "category": "ref", "prompt": "Which grid?", "answer_kind": "grid",
     "reference": [[1, 2], [3, 4]]},
    {"id": "p-rot", "category": "puzzle", "prompt": "Write the program.", "answer_kind": "text",
     "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}},
    {"id": "g-ninja", "category": "game", "prompt": "ninja 6", "answer_kind": "integer",
     "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 6}}},
    {"id": "g-coin", "category": "game", "prompt": "coinflip 2 3", "answer_kind": "text",
     "verifier": {"kind": "game_answer", "params": {"game": "coinflip", "m": 2, "n": 3}}},
]

GOLDEN_TABLE = {
    "r-choice": [["A", 0.4], ["B", 0.4], ["!error", 0.2]],
    "r-int": [["42", 0.5], ["the answer is 41", 0.3], ["none", 0.2]],
    "r-grid": [["12\n34", 0.6], ["43\n21", 0.4]],
    "p-rot": [["rotate180", 0.4], ["identity", 0.4], ["rotate45", 0.2]],
    "g-ninja": [["3", 0.5], ["4", 0.5]],
    "g-coin": [["true", 0.5], ["false", 0.5]],
}

GOLDEN_CONFIG = {
    "solvers": [
        {"id": "alpha", "kind": "scripted", "params": {
            "table": GOLDEN_TABLE,
            "rng_seed": 5,
            "prompt_triggers": {"Principles:": {"*": [["A", 0.5], ["42", 0.5]]}},
            "two_stage": {"*": [["think", 0.5, [["A", 0.5], ["3", 0.5]]],
                                ["guess", 0.5, [["B", 0.5], ["true", 0.5]]]]},
        }},
        {"id": "beta", "kind": "scripted", "params": {"table": GOLDEN_TABLE, "rng_seed": 9}},
        {"id": "judge", "kind": "scripted", "params": {"table": {"*": [["1", 0.5], ["0", 0.5]]}}},
    ],
    "methods": [
        {"method_id": "zero_shot"},
        {"method_id": "best_of_n", "n": 3},
        {"method_id": "self_consistency", "n": 3},
        {"method_id": "mixture_of_agents", "weights": [0.6, 0.4], "params": {"extra_solver_ids": ["beta"]}},
        {"method_id": "mcts", "n": 4},
        {"method_id": "rto", "n": 2, "params": {"forward_prompt": "Solve: {input}",
                                                "backward_prompt": "Restate: {output}"}},
        {"method_id": "prover_verifier", "rounds": 2, "params": {"verifier_solver_id": "judge"}},
        {"method_id": "plan_search", "n": 2},
        {"method_id": "leap", "params": {"examples": [["1+1", "2"], ["2+2", "4"]]}},
    ],
    "seed": 2024,
}

# sha256 of record.jsonl for GOLDEN_CONFIG; changes only with a deliberate
# change to the record format or to what a fixed seed draws.
GOLDEN_RECORD_SHA256 = "e34b074a7a767e54211c2df01dc60b21dfb908760f1bd0db925b8775a2d60f81"


def _record_sha256(tmp_path, config) -> list:
    """sha256 of record.jsonl of `quorum eval --config config`, run in a fresh
    interpreter under each of two string-hash seeds."""
    root = Path(__file__).resolve().parents[1]
    digests = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"runs-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "quorum.cli", "eval", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
        digests.append(sha256((run_dir / "record.jsonl").read_bytes()).hexdigest())
    return digests


def test_golden_record_digest(tmp_path):
    """A fixed-seed sweep over all nine methods and all three verifier kinds
    writes the same record.jsonl bytes in fresh interpreters, whatever the
    string-hash seed."""
    assert _record_sha256(tmp_path, _golden_config(tmp_path)) == [GOLDEN_RECORD_SHA256] * 2


# sha256 of record.jsonl for a sweep with method columns and a column for
# each bundled graph template, on two puzzles; changes only with a
# deliberate change to the record or trace format or to what a fixed seed draws.
GOLDEN_GRAPH_RECORD_SHA256 = "3a248c9006164cc17383f2f9418a1ecd98d1b56574c04fc21d5ce18cdfdb45e2"


def test_golden_record_digest_with_graph_columns(tmp_path):
    from quorum.fixtures import graph_template

    tasks = [{"id": "p-rot", "prompt": "Write the program.", "answer_kind": "text",
              "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}},
             {"id": "p-id", "prompt": "Write the program.", "answer_kind": "text",
              "verifier": {"kind": "arc_program", "params": {"task": ASYMMETRIC_TASK}}}]
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    for template in ("puzzle_pipeline", "olympiad_pipeline"):
        graph_template(template).save(tmp_path / f"{template}.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "solvers": [
            {"id": "primary", "kind": "scripted", "params": {
                "table": {"*": [["rotate180", 0.4], ["identity", 0.4], ["rotate45", 0.2]]}, "rng_seed": 5}},
            {"id": "synthesizer", "kind": "scripted", "params": {
                "table": {"*": [["ROTATE180", 0.4], ["flip_h", 0.4], ["!error:down", 0.2]]}, "rng_seed": 1}},
        ],
        "methods": [{"method_id": "zero_shot"}, {"method_id": "best_of_n", "n": 3},
                    {"graph": str(tmp_path / "puzzle_pipeline.json")},
                    {"graph": str(tmp_path / "olympiad_pipeline.json")}],
        "tasks": str(tmp_path / "tasks.json"),
        "seed": 3,
    }))
    assert _record_sha256(tmp_path, config) == [GOLDEN_GRAPH_RECORD_SHA256] * 2


# sha256 of the `quorum --seed 3 graph run --out` file for each bundled
# template on the inputs below; changes only with a deliberate change to
# the trace format or to what a fixed seed draws.
GRAPH_RUN_SHA256 = {
    "olympiad_pipeline": "a1e25f7f2d45e1682489028f7b25d8c327401a3698a1b2806c5978491358355c",
    "puzzle_pipeline": "da1b2fd8bdacc821d7db3d68bd2422c7e82dfcd5b0d6c74e8645ac8d81249b3e",
}


@pytest.mark.parametrize("template", sorted(GRAPH_RUN_SHA256))
def test_graph_run_digest(tmp_path, template):
    """A fixed-seed `graph run` of each bundled template writes the same
    bytes in fresh interpreters, whatever the string-hash seed."""
    from quorum.fixtures import graph_template

    root = Path(__file__).resolve().parents[1]
    graph = tmp_path / "graph.json"
    graph_template(template).save(graph)
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [
        {"id": "primary", "kind": "scripted", "params": {"table": {"*": [["yes", 0.3], ["no", 0.7]]}, "rng_seed": 4}},
        {"id": "synthesizer", "kind": "scripted",
         "params": {"table": {"*": [["ROTATE180", 0.5], ["flip_h", 0.5]]}, "rng_seed": 1}},
    ]}))
    task_file = tmp_path / "rot.json"
    task_file.write_text(json.dumps(ROT180_TASK))
    inputs = ["--task", str(task_file)] if template == "puzzle_pipeline" else [
        "--inputs", json.dumps({"task": {"id": "q", "prompt": "yes?", "answer_kind": "text", "reference": "yes"}})]
    digests = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"run-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "quorum.cli", "--seed", "3", "graph", "run", "--graph", str(graph), *inputs,
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        digests.append(sha256(out.read_bytes()).hexdigest())
    assert digests == [GRAPH_RUN_SHA256[template]] * 2


def _golden_config(tmp_path) -> Path:
    (tmp_path / "tasks.json").write_text(json.dumps(GOLDEN_TASKS))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**GOLDEN_CONFIG, "tasks": str(tmp_path / "tasks.json")}))
    return path


def _run_dir(out: Path) -> Path:
    [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
    return run_dir


def test_cell_that_raises_is_an_error_cell_and_the_run_exits_3(tmp_path, capsys, monkeypatch):
    import quorum.cli

    config = _golden_config(tmp_path)
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
    clean = (_run_dir(tmp_path / "clean") / "record.jsonl").read_text().splitlines()
    run_method = quorum.cli.run_method

    def faulty(mc, solver, task, seed):
        if task.id == "r-int" and mc.method_id == "mcts":
            raise RuntimeError("boom")
        return run_method(mc, solver, task, seed=seed)

    monkeypatch.setattr(quorum.cli, "run_method", faulty)
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "faulty")]) == 3
    err = capsys.readouterr().err
    cause = "internal error: RuntimeError: boom"
    assert f"internal error in 3 of 162 cell(s); first: r-int mcts@alpha: {cause}" in err
    run_dir = _run_dir(tmp_path / "faulty")
    lines = (run_dir / "record.jsonl").read_text().splitlines()
    assert len(lines) == len(clean) == 6 * 9 * 3
    errors = 0
    for line, clean_line in zip(lines, clean):
        cell, clean_cell = json.loads(line), json.loads(clean_line)
        if (cell["task_id"], cell["solver_id"].split("@")[0]) != ("r-int", "mcts"):
            assert line == clean_line
            continue
        errors += 1
        assert "trace" not in cell and cell["verdict"] == {"status": "error", "detail": cause, "checks": []}
        assert cell["candidate"] == {**clean_cell["candidate"], "answer_kind": None, "answer": None,
                                     "elapsed_ms": 0, "rationale": None, "error": cause}
    assert errors == 3
    matrix, expected = (json.loads((d / "matrix.json").read_text()) for d in (run_dir, _run_dir(tmp_path / "clean")))
    i = expected["task_ids"].index("r-int")
    for k, column in enumerate(expected["solver_ids"]):
        if column.startswith("mcts@"):
            expected["solved"][i][k], expected["elapsed_ms"][i][k] = 0, 0
    assert matrix == expected


def test_configuration_error_inside_a_cell_is_exit_2(eval_setup, capsys, monkeypatch):
    # A reply-cache miss with no API key set stops the run; it is not an error cell.
    monkeypatch.delenv("QUORUM_TEST_UNSET_KEY", raising=False)
    config_file, tmp_path = eval_setup
    config = json.loads(config_file.read_text())
    config["solvers"] = [{"id": "m", "kind": "http-model", "params": {
        "base_url": "http://127.0.0.1:9", "model": "m", "api_key_env": "QUORUM_TEST_UNSET_KEY"}}]
    config_file.write_text(json.dumps(config))
    assert main(["eval", "--config", str(config_file), "--out", str(tmp_path / "r")]) == 2
    assert "QUORUM_TEST_UNSET_KEY" in capsys.readouterr().err


@pytest.mark.parametrize("k", [0, 100])
def test_interrupted_run_leaves_its_first_cells_and_a_rerun_completes_it(tmp_path, monkeypatch, k):
    import quorum.cli

    config = _golden_config(tmp_path)
    argv = ["eval", "--config", str(config), "--out", str(tmp_path / "runs")]
    run_method, calls = quorum.cli.run_method, itertools.count()

    def interrupted(*args, **kwargs):
        if next(calls) == k:
            raise KeyboardInterrupt
        return run_method(*args, **kwargs)

    monkeypatch.setattr(quorum.cli, "run_method", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    run_dir = _run_dir(tmp_path / "runs")
    assert (run_dir / "config.json").exists() and not (run_dir / "record.jsonl").exists()
    partial = (run_dir / "record.jsonl.tmp").read_bytes()

    monkeypatch.undo()
    assert main(argv) == 0
    record = (run_dir / "record.jsonl").read_bytes()
    assert sha256(record).hexdigest() == GOLDEN_RECORD_SHA256
    assert partial.splitlines(keepends=True) == record.splitlines(keepends=True)[:k]
    assert not (run_dir / "record.jsonl.tmp").exists()


def test_eval_holds_at_most_two_cell_records_at_once(tmp_path, monkeypatch):
    import weakref

    import quorum.cli

    alive, counts = weakref.WeakSet(), []

    class CountedCellRecord(quorum.cli.CellRecord):
        __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: the trace dict is unhashable

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.add(self)
            counts.append(len(alive))

    monkeypatch.setattr(quorum.cli, "CellRecord", CountedCellRecord)
    tasks = [{"id": f"t{i}", "category": "", "prompt": "?", "answer_kind": "choice", "reference": "A"}
             for i in range(60)]
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    config = {
        "solvers": [{"id": sid, "kind": "scripted", "params": {"table": {"*": [["A", 0.5], ["B", 0.5]]},
                                                              "rng_seed": i}} for i, sid in enumerate("xy")],
        "methods": [{"method_id": "zero_shot"}, {"method_id": "best_of_n", "n": 2}],
        "tasks": str(tmp_path / "tasks.json"),
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "r")]) == 0
    assert len(counts) == 60 * 2 * 2 and max(counts) <= 2


def test_parallel_eval_submits_at_most_two_cells_per_worker_ahead_of_the_writer(tmp_path, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    from quorum.adapters import ChatClient
    from quorum.core.runstore import CellRecord

    def fake_complete(self, prompt, seed=0):  # a function of (model, prompt, seed); opens no socket
        return "AB"[sha256(f"{self.model}|{prompt}|{seed}".encode()).digest()[0] % 2]

    submitted, written, ahead = [0], [0], []
    submit, to_json = ThreadPoolExecutor.submit, CellRecord.to_json

    def counting_submit(self, *args, **kwargs):
        submitted[0] += 1
        ahead.append(submitted[0] - written[0])
        return submit(self, *args, **kwargs)

    def counting_to_json(self):
        written[0] += 1
        return to_json(self)

    monkeypatch.setattr(ChatClient, "complete", fake_complete)
    tasks = [{"id": f"t{i}", "category": "", "prompt": f"q{i}?", "answer_kind": "choice", "reference": "A"}
             for i in range(60)]
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    config = {
        "solvers": [{"id": model, "kind": "http-model", "params": {
            "base_url": "http://127.0.0.1:9", "model": model, "api_key_env": None}} for model in ("m1", "m2")],
        "methods": [{"method_id": "zero_shot"}, {"method_id": "best_of_n", "n": 2}],
        "tasks": str(tmp_path / "tasks.json"),
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    records = []
    for label, flags in (("serial", []), ("parallel", ["--parallel", "2"])):
        if flags:
            monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
            monkeypatch.setattr(CellRecord, "to_json", counting_to_json)
        out = tmp_path / label
        assert main(["eval", "--config", str(tmp_path / "c.json"), "--out", str(out), *flags]) == 0
        [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
        cells = [json.loads(line) for line in (run_dir / "record.jsonl").read_text().splitlines()]
        for cell in cells:
            del cell["ts_ms"], cell["candidate"]["elapsed_ms"]
        records.append(cells)
    assert submitted[0] == written[0] == len(records[0]) == 60 * 2 * 2
    assert max(ahead) == 4  # 2 * --parallel
    assert records[0] == records[1]


class TestArcCli:
    def test_verify_pass(self, tmp_path, capsys):
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        code = main(["arc", "verify", "--task", str(task_file), "--program", "rotate180"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_verify_mismatch_exit_1_with_diff(self, tmp_path, capsys):
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        code = main(["arc", "verify", "--task", str(task_file), "--program", "identity"])
        assert code == 1
        out = capsys.readouterr().out
        assert "fail" in out and "differing cells" in out

    def test_verify_syntax_error_exit_2(self, tmp_path, capsys):
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        assert main(["arc", "verify", "--task", str(task_file), "--program", "rotate45"]) == 2

    @pytest.mark.parametrize("command", ["verify", "predict"])
    def test_program_text_is_read_as_eval_reads_it(self, tmp_path, capsys, command):
        # Outputs equal inputs, so only the parse can reject the zero-op program.
        task_file = tmp_path / "same.json"
        task_file.write_text(json.dumps(ASYMMETRIC_TASK))
        assert main(["arc", command, "--task", str(task_file), "--program", ";"]) == 2
        assert "at least one operation" in capsys.readouterr().err
        assert main(["arc", command, "--task", str(task_file), "--program", "IDENTITY"]) == 0
        assert main(["arc", command, "--task", str(task_file), "--program", "identity;\n  rotate45"]) == 2
        assert "(line 2, column 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("puzzle,argv", [
        ({"train": [1]}, ["--program", "identity"]),
        ({**ROT180_TASK, "test": 5}, ["--program", "identity"]),
        (ROT180_TASK, ["--external", "cat", "--timeout-ms", "0"]),
        *(({**ROT180_TASK, "test": [{"input": [[1, cell], [0, 2]]}]}, ["--program", "identity"])
          for cell in (1.5, True, "3", "x", {})),
    ], ids=["train-entry-not-an-object", "test-not-a-list", "timeout-ms-zero",
            "cell-float", "cell-bool", "cell-digit-string", "cell-string", "cell-object"])
    @pytest.mark.parametrize("command", ["verify", "predict"])
    def test_input_mistakes_are_exit_2(self, tmp_path, capsys, command, puzzle, argv):
        task_file = tmp_path / "puzzle.json"
        task_file.write_text(json.dumps(puzzle))
        assert main(["arc", command, "--task", str(task_file), *argv]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_predict_prints_grid(self, tmp_path, capsys):
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        code = main(["arc", "predict", "--task", str(task_file), "--program", "rotate180"])
        assert code == 0
        assert "20\n11" in capsys.readouterr().out

    def test_augment_writes_orbit(self, tmp_path, capsys):
        task_file = tmp_path / "asym.json"
        task_file.write_text(json.dumps(ASYMMETRIC_TASK))
        out_dir = tmp_path / "aug"
        code = main(["arc", "augment", "--task", str(task_file), "--out", str(out_dir)])
        assert code == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 8
        for f in files:
            payload = json.loads(f.read_text())
            assert payload["train"]

    def test_loo_writes_variants(self, tmp_path):
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        out_dir = tmp_path / "loo"
        assert main(["arc", "loo", "--task", str(task_file), "--out", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.json"))
        assert len(files) == 2
        for f in files:
            payload = json.loads(f.read_text())
            assert len(payload["train"]) == 1
            assert payload["test"][0].get("output") is not None

    def test_external_program(self, tmp_path):
        task_file = tmp_path / "id.json"
        task_file.write_text(json.dumps({
            "train": [{"input": [[1, 2]], "output": [[1, 2]]}],
            "test": [],
        }))
        script = tmp_path / "echo.py"
        script.write_text("import sys\nsys.stdout.write(sys.stdin.read())\n")
        code = main(["arc", "verify", "--task", str(task_file),
                     "--external", sys.executable, str(script)])
        assert code == 0


# sha256 of each command's files, parsed and re-encoded with sorted keys:
# the values the files held when they were indented, so writing them on one
# line changed no value.
WRITTEN_VALUES = {
    "augment": (8, "64788e7319c2c0d4a393dcec17fb87077d4377c6a58a8febacfcbf985ab0bfb0"),
    "loo": (2, "3cfb4a1d97985b99e1d0edac349702d9c7ffaf61b8a351957fb152cca31ef136"),
    "predict": (1, "1fb9d2f7e08410d28ebea5e78a8e1f9a866bd9503ac0104f73b7f8ea5e769287"),
}


@pytest.mark.parametrize("command", sorted(WRITTEN_VALUES))
def test_arc_files_are_one_line_and_keep_their_values(tmp_path, command):
    task_file, out = tmp_path / "task.json", tmp_path / "out"
    task_file.write_text(json.dumps(ASYMMETRIC_TASK))
    out.mkdir()
    argv = (["--program", "rotate90; recolor(2->5)", "--unsafe", "--out", str(out / "predict.json")]
            if command == "predict" else ["--out", str(out)])
    assert main(["arc", command, "--task", str(task_file), *argv]) == 0
    texts = {p.name: p.read_text() for p in sorted(out.iterdir())}
    assert all(text.count("\n") == 1 and text.endswith("\n") for text in texts.values())
    values = {name: json.loads(text) for name, text in texts.items()}
    assert (len(values), sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()) == WRITTEN_VALUES[command]


SRC = Path(__file__).resolve().parents[1] / "src" / "quorum"

# The writers that keep their indented format: graph run output (its
# digests are pinned), graph files (people edit them by hand) and the chat
# reply cache. Every other JSON file quorum writes is one line from the C
# encoder.
INDENTED_WRITERS = {("cli.py", "cmd_graph"), ("graph/model.py", "PipelineGraph.save"),
                    ("adapters/chat.py", "ChatClient._cache_write")}


def test_only_the_kept_writers_indent_their_json():
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                dump = isinstance(func, ast.Attribute) and func.attr == "dump" and getattr(func.value, "id", None) == "json"
                if dump or any(keyword.arg == "indent" for keyword in child.keywords):
                    found.add((module, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{scope}.{child.name}".lstrip(".") if named else scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC).as_posix(), "")
    assert found == INDENTED_WRITERS


SHAPE_PUZZLE = {"train": [{"input": [[1, 2], [3, 4]], "output": [[4, 3], [2, 1]]}]}  # 2x2 train output


@pytest.mark.parametrize("way", ["verify_program", "arc verify", "eval cell"])
def test_output_of_the_wrong_shape_fails(tmp_path, capsys, way):
    """``tile(1,2)`` turns the 2x2 train input into a 2x4 grid, so the
    program fails, whichever way it is verified."""
    if way == "verify_program":
        from quorum.arc import ArcTask, parse_dsl, verify_program
        from quorum.core.runstore import verdict_to_json

        verdict = verdict_to_json(verify_program(parse_dsl("tile(1,2)"), ArcTask.from_dict(SHAPE_PUZZLE, "shape")))
    elif way == "arc verify":
        puzzle, out = tmp_path / "puzzle.json", tmp_path / "verdict.json"
        puzzle.write_text(json.dumps(SHAPE_PUZZLE))
        assert main(["arc", "verify", "--task", str(puzzle), "--program", "tile(1,2)", "--out", str(out)]) == 1
        assert capsys.readouterr().out == "train[0]: fail (shape 2x4 != 2x2)\n"
        verdict = json.loads(out.read_text())
    else:
        tasks = tmp_path / "tasks.json"
        tasks.write_text(json.dumps([{"id": "shape", "prompt": "?", "answer_kind": "text",
                                      "verifier": {"kind": "arc_program", "params": {"task": SHAPE_PUZZLE}}}]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(_solver_config(tmp_path, "tile(1,2)").read_text()),
                                      "methods": [{"method_id": "zero_shot"}], "tasks": str(tasks)}))
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
        (cell,) = map(json.loads, (_run_dir(tmp_path / "runs") / "record.jsonl").read_text().splitlines())
        verdict = cell["verdict"]
    assert verdict == {"status": "fail", "detail": "", "checks": [["train[0]", False, "shape 2x4 != 2x2"]]}


class TestGameCli:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["game", "coinflip", "2", "3"], "solvable: true"),
            (["game", "coinflip", "2", "2"], "solvable: false"),
            (["game", "sequence", "4"], "L = 7"),
            (["game", "ninja", "6"], "k = 3"),
            (["game", "turbo", "4", "3"], "n = 3"),
        ],
    )
    def test_published_answers(self, argv, expected, capsys):
        assert main(argv) == 0
        assert expected in capsys.readouterr().out

    def test_machine_readable_record(self, tmp_path, capsys):
        out = tmp_path / "seq.json"
        assert main(["game", "sequence", "4", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["value"] == 7
        assert len(record["witness"]) == 7

    def test_simulation_attached(self, tmp_path, capsys):
        # Each exact game simulates its own encoding; the rewards are pinned.
        for argv, rewards in [
            (["coinflip", "2", "3"], [996, 974, 960, 936]),
            (["sequence", "4"], [2.0, 2.0, 2.0, 2.0]),
            (["ninja", "6"], [3.0, 1.0, 3.0, 1.0]),
            (["turbo", "4", "3"], [-1.02, -1.04, -1.06, -1.07]),
        ]:
            out = tmp_path / f"{argv[0]}.json"
            assert main(["--seed", "3", "game", *argv, "--simulate", "4", "--out", str(out)]) == 0
            record = json.loads(out.read_text())
            assert record["simulation"] == {"episodes": 4, "seed": 3, "total_rewards": rewards}, argv

    def test_intractable_is_exit_2(self, capsys):
        assert main(["game", "coinflip", "6", "6"]) == 2

    def test_bad_arity_is_exit_2(self, capsys):
        for argv in (["game", "coinflip", "2"], ["game", "coinflip", "x", "3"]):
            assert main(argv) == 2
            assert "usage: game coinflip M N" in capsys.readouterr().err


def _solver_config(tmp_path, program_text="rotate180", solver_id="synthesizer"):
    config = {"solvers": [{"id": solver_id, "kind": "scripted",
                           "params": {"table": {"*": [[program_text, 1.0]]}}}]}
    path = tmp_path / "solvers.json"
    path.write_text(json.dumps(config))
    return path


class TestGraphCli:
    def _template_path(self, tmp_path):
        from quorum.fixtures import graph_template

        path = tmp_path / "pipeline.json"
        graph_template("puzzle_pipeline").save(path)
        return path

    def test_run_template(self, tmp_path, capsys):
        graph_file = self._template_path(tmp_path)
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        code = main(["graph", "run", "--graph", str(graph_file), "--task", str(task_file),
                     "--config", str(_solver_config(tmp_path))])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["passed"] is True
        assert len(payload["trace"]["entries"]) == 3

    def test_graph_verifies_tasks_as_eval_does(self, tmp_path, capsys):
        # The olympiad template on a game task, and a run_method graph on a
        # puzzle task as an eval column: the tasks' verifiers judge the answers.
        from quorum.fixtures import graph_template

        game_task = {"id": "g1", "category": "game", "prompt": "ninja 6", "answer_kind": "integer",
                     "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 6}}}
        config = tmp_path / "solvers.json"
        config.write_text(json.dumps({"solvers": [
            {"id": "primary", "kind": "scripted", "params": {"table": {"g1": [["3", 1.0]],
                                                                       "p1": [["rotate180", 1.0]]}}},
        ]}))
        olympiad = tmp_path / "olympiad.json"
        graph_template("olympiad_pipeline").save(olympiad)
        code = main(["graph", "run", "--graph", str(olympiad), "--inputs", json.dumps({"task": game_task}),
                     "--config", str(config)])
        assert code == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["answer"] == "3" and outputs["passed"] is True

        puzzle_task = {"id": "p1", "category": "puzzle", "prompt": "Write the program.", "answer_kind": "text",
                       "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}}
        (tmp_path / "tasks.json").write_text(json.dumps([puzzle_task]))
        graph = graph_template("olympiad_pipeline").to_json()
        graph["nodes"]["attempt"]["params"]["n"] = 1
        small = tmp_path / "small.json"
        small.write_text(json.dumps(graph))
        matrix = _graph_eval(tmp_path, config, [olympiad, small])
        assert matrix["solver_ids"] == ["olympiad_pipeline#1", "olympiad_pipeline#2"]
        assert matrix["solved"] == [[1, 1]]

    @pytest.mark.parametrize("case", ["bad-task", "unknown-solver"])
    def test_node_config_mistake_is_exit_2(self, tmp_path, capsys, case):
        from quorum.fixtures import graph_template

        if case == "bad-task":  # the olympiad template's run_method node builds the task
            graph = tmp_path / "olympiad.json"
            graph_template("olympiad_pipeline").save(graph)
            task = {"id": "q", "prompt": "?", "answer_kind": "bogus"}
            argv = ["--inputs", json.dumps({"task": task}), "--config", str(_solver_config(tmp_path, solver_id="primary"))]
            message = "configuration error: task 'q': unknown answer kind 'bogus'"
        else:  # the puzzle template's solve_text node names 'synthesizer'
            graph = self._template_path(tmp_path)
            solvers = tmp_path / "other.json"
            solvers.write_text(json.dumps({"solvers": [{"id": "other", "kind": "scripted", "params": {}}]}))
            task_file = tmp_path / "rot.json"
            task_file.write_text(json.dumps(ROT180_TASK))
            argv = ["--task", str(task_file), "--config", str(solvers)]
            message = "configuration error: no solver 'synthesizer'"
        assert main(["graph", "run", "--graph", str(graph), *argv]) == 2
        assert message in capsys.readouterr().err

    def _method_graph(self, tmp_path, **nodes):
        from quorum.graph import PipelineGraph

        path = tmp_path / "methods.json"
        PipelineGraph.from_json({
            "nodes": {name: {"op": "run_method", "params": params} for name, params in nodes.items()},
            "edges": [],
            "inputs": {"task": [[name, "task"] for name in nodes]},
            "outputs": {f"{name}_{port}": [name, port] for name in nodes for port in ("answer", "passed")},
        }).save(path)
        return path

    def test_run_method_node_params_are_a_method_entry(self, tmp_path, capsys):
        config = tmp_path / "solvers.json"
        config.write_text(json.dumps({"solvers": [
            {"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}},
            {"id": "b", "kind": "scripted", "params": {"table": {"*": [["B", 1.0]]}}},
            {"id": "judge", "kind": "scripted", "params": {"table": {"*": [["1", 1.0]]}}},
        ]}))
        graph = self._method_graph(
            tmp_path,
            moa={"method_id": "mixture_of_agents", "solver_id": "s", "weights": [0.25, 0.75],
                 "params": {"extra_solver_ids": ["b"]}},
            pv={"method_id": "prover_verifier", "solver_id": "s", "rounds": 2,
                "params": {"verifier_solver_id": "judge"}},
        )
        task = {"id": "q", "prompt": "?", "answer_kind": "choice", "reference": "A"}
        assert main(["graph", "run", "--graph", str(graph), "--inputs", json.dumps({"task": task}),
                     "--config", str(config)]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs == {"moa_answer": "B", "moa_passed": False, "pv_answer": "A", "pv_passed": True}

    @pytest.mark.parametrize(
        "params",
        [
            {"method_id": "rto", "solver_id": "s", "method_params": {"forward_prompt": "{input}"}},
            {"method_id": "best_of_n", "solver_id": "s", "use_verifier": False},
            {"method_id": "mixture_of_agents", "solver_id": "s", "extra_solver_ids": ["s"]},
            {"solver_id": "s"},
            {"method_id": "best_of_n"},
            {"method_id": "zero_shot", "solver_id": "s", "n": 3},
            {"method_id": "best_of_n", "solver_id": ["s"]},
            {"method_id": "rto", "solver_id": "s", "params": {"foward_prompt": "{input}"}},
        ],
        ids=["method-params", "use-verifier", "node-level-extra-solvers", "no-method-id", "no-solver-id",
             "n-on-zero-shot", "solver-id-as-list", "misspelt-rto-param"],
    )
    def test_run_method_node_with_other_params_is_exit_2(self, tmp_path, capsys, params):
        config = tmp_path / "solvers.json"
        config.write_text(json.dumps({"solvers": [
            {"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}}]}))
        task = {"id": "q", "prompt": "?", "answer_kind": "choice", "reference": "A"}
        assert main(["graph", "run", "--graph", str(self._method_graph(tmp_path, m=params)),
                     "--inputs", json.dumps({"task": task}), "--config", str(config)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run"])
    def test_config_that_is_not_an_object_is_exit_2(self, tmp_path, capsys, command):
        config = tmp_path / "solvers.json"
        config.write_text(json.dumps([{"id": "s", "kind": "scripted", "params": {}}]))
        graph = self._template_path(tmp_path)
        assert main(["graph", command, "--graph", str(graph), "--config", str(config)]) == 2
        assert "configuration error: a graph config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("inputs,message", [
        ("[1]", "graph --inputs must be a JSON object, got [1]"),
        ("{}", "missing graph inputs: ['task']"),
    ], ids=["inputs-not-an-object", "missing-input"])
    def test_graph_inputs_mistake_is_exit_2(self, tmp_path, capsys, inputs, message):
        from quorum.fixtures import graph_template

        graph = tmp_path / "olympiad.json"
        graph_template("olympiad_pipeline").save(graph)
        config = _solver_config(tmp_path, solver_id="primary")
        assert main(["graph", "run", "--graph", str(graph), "--inputs", inputs, "--config", str(config)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("template,task,message", [
        ("puzzle_pipeline", 5, "a puzzle must be an object, got 5"),
        ("puzzle_pipeline", {"train": 1}, "train must be a list, got 1"),
        ("olympiad_pipeline", 5, "a task must be a JSON object, got 5"),
    ], ids=["puzzle-not-an-object", "puzzle-train-not-a-list", "task-not-an-object"])
    def test_graph_task_input_that_is_not_a_task_is_exit_2(self, tmp_path, capsys, template, task, message):
        from quorum.fixtures import graph_template

        graph = tmp_path / "graph.json"
        graph_template(template).save(graph)
        config = _solver_config(tmp_path, "3", "primary" if template == "olympiad_pipeline" else "synthesizer")
        assert main(["graph", "run", "--graph", str(graph), "--inputs", json.dumps({"task": task}),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize(
        "content",
        [1, [1], [{"id": "q", "prompt": "?"}, {"id": "q", "prompt": "!"}], [{"prompt": "?"}]],
        ids=["not-a-list", "entry-not-an-object", "duplicate-id", "entry-without-id"],
    )
    def test_abtest_tasks_file_of_other_json_is_exit_2(self, tmp_path, capsys, content):
        # An A/B test of two graphs is an eval config with two graph columns.
        graph = self._template_path(tmp_path)
        with pytest.raises(SystemExit, match="2"):
            _graph_eval(tmp_path, _solver_config(tmp_path), [graph, graph], tasks=content)
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_bad_graph_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", "run", "--graph", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda graph: graph.update(nodes=[]),
        lambda graph: graph["nodes"]["prompt"].update(params=5),
        lambda graph: graph["outputs"].update(passed=""),
        lambda graph: graph["outputs"].update(passed=["check"]),
        lambda graph: graph["inputs"]["task"].__setitem__(1, "x"),
        lambda graph: graph["edges"].__setitem__(0, ["prompt", "prompt", "synthesize"]),
        lambda graph: graph["edges"][0].__setitem__(3, ["prompt"]),
        lambda graph: graph["nodes"]["check"].update(op=["puzzle_verify"]),
        lambda graph: graph["nodes"]["check"].update(parmas={}),
        lambda graph: graph.update(name=5),
        lambda graph: graph["nodes"]["prompt"]["params"].update(style="x"),
        lambda graph: graph["nodes"]["prompt"]["params"].update(stlye="compact"),
        lambda graph: graph["nodes"]["synthesize"]["params"].update(task_id=[1]),
    ], ids=["nodes-not-an-object", "params-not-an-object", "output-as-empty-string", "output-not-a-pair",
            "input-binding-not-a-pair", "edge-of-three", "edge-port-as-list", "op-as-list", "misspelt-node-key",
            "name-as-number", "unknown-prompt-style", "misspelt-op-param", "task-id-not-a-string"])
    def test_malformed_graph_file_is_exit_2(self, tmp_path, capsys, edit):
        graph = json.loads(self._template_path(tmp_path).read_text())
        edit(graph)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        task_file = tmp_path / "rot.json"
        task_file.write_text(json.dumps(ROT180_TASK))
        assert main(["graph", "run", "--graph", str(path), "--task", str(task_file),
                     "--config", str(_solver_config(tmp_path))]) == 2
        assert "configuration error" in capsys.readouterr().err
        # As an eval column the same file stops the sweep before the run is named.
        with pytest.raises(SystemExit, match="2"):
            _graph_eval(tmp_path, _solver_config(tmp_path), [path])
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["run", "abtest", "mutate"])
    def test_misspelt_op_param_is_exit_2(self, tmp_path, capsys, command):
        graph_file = self._template_path(tmp_path)
        if command == "mutate":
            argv = ["--graph", str(graph_file), "--mutation", 'edit_param prompt {"key": "stlye", "value": "compact"}']
        else:
            graph = json.loads(graph_file.read_text())
            graph["nodes"]["prompt"]["params"] = {"stlye": "compact"}
            graph_file.write_text(json.dumps(graph))
            task_file = tmp_path / "rot.json"
            task_file.write_text(json.dumps(ROT180_TASK))
            argv = ["--graph", str(graph_file), "--task", str(task_file), "--config", str(_solver_config(tmp_path))]
        before = graph_file.read_text()
        if command == "abtest":  # an A/B test of two graphs is an eval config with two graph columns
            with pytest.raises(SystemExit, match="2"):
                _graph_eval(tmp_path, _solver_config(tmp_path), [graph_file, graph_file])
        else:
            assert main(["graph", command, *argv]) == 2
        assert "takes no param 'stlye'" in capsys.readouterr().err
        assert graph_file.read_text() == before

    @pytest.mark.parametrize("mutation", [
        'add_node extra {"op": "const", "params": 5}',
        'remove_data examples {"index": "0"}',
        'edit_param x {"node": [1], "key": "k", "value": 1}',
        'edit_param synthesize {"key": [1], "value": 1}',
        'add_node x {"op": ["const"]}',
        'add_data x {"name": [1], "item": 1}',
        'remove_node x {"node": {"a": 1}}',
        'remove_data examples {"index": 1' + "0" * 5000 + '}',
    ], ids=["add-node-params-not-an-object", "remove-data-index-not-an-integer", "node-not-a-string",
            "key-not-a-string", "op-not-a-string", "name-not-a-string", "node-an-object", "index-too-long"])
    def test_malformed_mutation_is_exit_2(self, tmp_path, capsys, mutation):
        graph_file = self._template_path(tmp_path)
        before = graph_file.read_text()
        assert main(["graph", "mutate", "--graph", str(graph_file), "--mutation", mutation]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert graph_file.read_text() == before

    def test_mutate_writes_new_graph(self, tmp_path, capsys):
        graph_file = self._template_path(tmp_path)
        out_file = tmp_path / "mutated.json"
        code = main(["graph", "mutate", "--graph", str(graph_file),
                     "--mutation", 'edit_param synthesize {"key": "solver_id", "value": "other"}',
                     "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["nodes"]["synthesize"]["params"]["solver_id"] == "other"

    def test_mutate_rejecting_invalid_exit_2(self, tmp_path, capsys):
        graph_file = self._template_path(tmp_path)
        code = main(["graph", "mutate", "--graph", str(graph_file),
                     "--mutation", "remove_node prompt"])
        assert code == 2

    def test_abtest_writes_matrix(self, tmp_path, capsys):
        # A graph and its `graph mutate` copy, side by side as two columns of one eval run.
        from quorum.graph import Mutation, PipelineGraph, mutate as apply_mutation

        tasks = [{"id": f"t{i}", "prompt": "?", "answer_kind": "text", "reference": "yes"}
                 for i in range(6)]
        base = PipelineGraph.from_json({
            "name": "small",
            "nodes": {"m": {"op": "run_method",
                            "params": {"method_id": "best_of_n", "n": 1, "solver_id": "s"}}},
            "edges": [],
            "inputs": {"task": [["m", "task"]]},
            "outputs": {"answer": ["m", "answer"], "passed": ["m", "passed"]},
        })
        big = apply_mutation(base, Mutation("edit_param", {"node": "m", "key": "n", "value": 5}))
        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        base.save(g1)
        big.save(g2)
        solver_config = tmp_path / "sc.json"
        solver_config.write_text(json.dumps({
            "solvers": [{"id": "s", "kind": "scripted",
                         "params": {"table": {"*": [["yes", 0.5], ["no", 0.5]]}}}]
        }))
        matrix = _graph_eval(tmp_path, solver_config, [g1, g2], tasks=tasks)
        assert matrix["solver_ids"] == ["small#1", "small#2"]
        assert matrix["task_ids"] == [task["id"] for task in tasks]

    def test_abtest_variant_with_unknown_method_is_exit_2(self, tmp_path, capsys):
        config = tmp_path / "solvers.json"
        config.write_text(json.dumps({"solvers": [
            {"id": "s", "kind": "scripted", "params": {"table": {"*": [["A", 1.0]]}}}]}))
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        for path, method_id in ((good, "zero_shot"), (bad, "no_such_method")):
            path.write_text(json.dumps({
                "nodes": {"m": {"op": "run_method", "params": {"method_id": method_id, "solver_id": "s"}}},
                "inputs": {"task": [["m", "task"]]}, "outputs": {"answer": ["m", "answer"]}}))
        with pytest.raises(SystemExit, match="2"):
            _graph_eval(tmp_path, config, [good, bad],
                        tasks=[{"id": "q", "prompt": "?", "answer_kind": "choice", "reference": "A"}])
        assert "configuration error: unknown method 'no_such_method'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_abtest_variant_whose_solver_raises_scores_unsolved(self, tmp_path, capsys):
        from quorum.fixtures import graph_template

        config = tmp_path / "solvers.json"
        config.write_text(json.dumps({"solvers": [
            {"id": "synthesizer", "kind": "scripted", "params": {"table": {"*": [["rotate180", 1.0]]}}},
            {"id": "broken", "kind": "scripted", "params": {"table": {"*": [["!error:down", 1.0]]}}},
        ]}))
        good = graph_template("puzzle_pipeline").to_json()
        bad = json.loads(json.dumps(good))
        bad["name"] = "broken_pipeline"
        bad["nodes"]["synthesize"]["params"]["solver_id"] = "broken"
        for name, graph in (("good", good), ("bad", bad)):
            (tmp_path / f"{name}.json").write_text(json.dumps(graph))
        matrix = _graph_eval(tmp_path, config, [tmp_path / "good.json", tmp_path / "bad.json"])
        assert "✗" in capsys.readouterr().out
        assert matrix["solved"] == [[1, 0]]
        cell = json.loads((_run_dir(tmp_path / "runs") / "record.jsonl").read_text().splitlines()[1])
        assert cell["candidate"]["error"] == "node 'synthesize' failed: down"
        assert cell["verdict"]["detail"] == "candidate error: node 'synthesize' failed: down"


PUZZLE_TASK = {"id": "p1", "prompt": "Write the program.", "answer_kind": "text",
               "verifier": {"kind": "arc_program", "params": {"task": ROT180_TASK}}}


def _graph_eval(tmp_path, solver_config, graphs, tasks=None) -> dict:
    """matrix.json of `quorum eval` on ``tasks`` (default: one puzzle), with
    the solvers of ``solver_config`` and one column per graph file; a run
    that exits other than 0 raises SystemExit."""
    (tmp_path / "tasks.json").write_text(json.dumps([PUZZLE_TASK] if tasks is None else tasks))
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({**json.loads(Path(solver_config).read_text()), "tasks": str(tmp_path / "tasks.json"),
                                  "methods": [{"graph": str(path)} for path in graphs]}))
    code = main(["eval", "--config", str(config), "--out", str(tmp_path / "runs")])
    if code:
        raise SystemExit(code)
    return json.loads((_run_dir(tmp_path / "runs") / "matrix.json").read_text())


def test_a_graph_edited_in_place_names_a_new_run(tmp_path):
    from quorum.fixtures import graph_template

    graph = tmp_path / "g.json"
    graph_template("puzzle_pipeline").save(graph)
    _graph_eval(tmp_path, _solver_config(tmp_path), [graph])
    first = _run_dir(tmp_path / "runs")
    record = (first / "record.jsonl").read_bytes()
    assert main(["graph", "mutate", "--graph", str(graph),
                 "--mutation", 'edit_param prompt {"key": "style", "value": "compact"}']) == 0
    assert main(["eval", "--config", str(tmp_path / "eval.json"), "--out", str(tmp_path / "runs")]) == 0
    runs = [p for p in (tmp_path / "runs").iterdir() if p.name.startswith("run-")]
    assert len(runs) == 2 and (first / "record.jsonl").read_bytes() == record


def test_graph_whose_own_passed_is_true_scores_by_its_answer(tmp_path):
    # A "liar": its passed output is a const true node, its answer a wrong program.
    liar = {"name": "liar",
            "nodes": {"says": {"op": "const", "params": {"value": True}},
                      "program": {"op": "const", "params": {"value": "flip_h"}}},
            "edges": [], "inputs": {}, "outputs": {"answer": ["program", "value"], "passed": ["says", "value"]}}
    (tmp_path / "liar.json").write_text(json.dumps(liar))
    matrix = _graph_eval(tmp_path, _solver_config(tmp_path), [tmp_path / "liar.json"])
    assert matrix["solved"] == [[0]]
    cell = json.loads((_run_dir(tmp_path / "runs") / "record.jsonl").read_text())
    assert cell["trace"]["passed"] is True and cell["verdict"]["status"] == "fail"


GRAPH_ENTRY_MISTAKES = {
    "extra-key": "a graph entry takes no 'method_id' entry",
    "no-answer": "declares no 'answer' output",
    "unknown-solver": "no solver 'other'",
    "bad-run-method-entry": "method 'best_of_n' takes no 'rounds' entry",
    "label-clash": "repeat the column(s) 'a#2'",
    "input-other-than-task": "an eval column gives only 'task'",
    "empty-name": "must be a non-empty string",
}


def test_graph_cell_with_a_real_backend_records_its_wall_time(tmp_path, monkeypatch):
    import time

    from quorum.adapters import ChatClient
    from quorum.fixtures import graph_template

    monkeypatch.setattr(ChatClient, "complete", lambda self, prompt, seed=0: time.sleep(0.03) or "rotate180")
    config = tmp_path / "solvers.json"
    config.write_text(json.dumps({"solvers": [{"id": "synthesizer", "kind": "http-model", "params": {
        "base_url": "http://127.0.0.1:9", "model": "m", "api_key_env": None}}]}))
    graph_template("puzzle_pipeline").save(tmp_path / "g.json")
    matrix = _graph_eval(tmp_path, config, [tmp_path / "g.json"])
    assert matrix["solved"] == [[1]] and matrix["elapsed_ms"][0][0] >= 30


@pytest.mark.parametrize("case,message", GRAPH_ENTRY_MISTAKES.items(), ids=list(GRAPH_ENTRY_MISTAKES))
def test_graph_entry_mistake_is_exit_2_before_any_cell(tmp_path, capsys, monkeypatch, case, message):
    import quorum.cli
    from quorum.fixtures import graph_template

    cells = []
    monkeypatch.setattr(quorum.cli, "execute", lambda *a, **kw: cells.append(a))
    puzzle, olympiad = graph_template("puzzle_pipeline").to_json(), graph_template("olympiad_pipeline").to_json()
    graphs = {"g.json": puzzle}
    entries = [{"graph": "g.json"}]
    if case == "extra-key":
        entries[0]["method_id"] = "zero_shot"
    elif case == "no-answer":
        del puzzle["outputs"]["answer"]
    elif case == "unknown-solver":
        puzzle["nodes"]["synthesize"]["params"]["solver_id"] = "other"
    elif case == "bad-run-method-entry":
        olympiad["nodes"]["attempt"]["params"].update(solver_id="synthesizer", rounds=2)
        graphs = {"g.json": olympiad}
    elif case == "label-clash":  # the second "a" would become column "a#2", which the first graph already names
        graphs = {f"g{i}.json": {**puzzle, "name": name} for i, name in enumerate(["a#2", "a", "a"])}
        entries = [{"graph": name} for name in graphs]
    elif case == "input-other-than-task":
        puzzle["inputs"]["puzzle"] = puzzle["inputs"].pop("task")
    else:
        puzzle["name"] = ""
    for name, graph in graphs.items():
        (tmp_path / name).write_text(json.dumps(graph))
    (tmp_path / "tasks.json").write_text(json.dumps([PUZZLE_TASK]))
    config = tmp_path / "eval.json"
    config.write_text(json.dumps({**json.loads(_solver_config(tmp_path).read_text()), "tasks": "tasks.json",
                                  "methods": [{"method_id": "zero_shot"}, *entries]}))
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "runs")]) == 2
    assert message in capsys.readouterr().err
    assert cells == [] and not (tmp_path / "runs").exists()


def test_puzzle_graph_on_a_task_that_holds_no_puzzle_is_exit_2(tmp_path, capsys):
    from quorum.fixtures import graph_template

    graph_template("puzzle_pipeline").save(tmp_path / "g.json")
    with pytest.raises(SystemExit, match="2"):
        _graph_eval(tmp_path, _solver_config(tmp_path), [tmp_path / "g.json"],
                    tasks=[{"id": "q", "prompt": "?", "answer_kind": "text", "reference": "rotate180"}])
    assert "configuration error: a puzzle must be an object, got Task(id='q'" in capsys.readouterr().err


def test_graph_abtest_is_gone(capsys):
    with pytest.raises(SystemExit, match="2"):
        main(["graph", "abtest", "--graphs", "a.json", "b.json", "--tasks", "tasks.json"])
    assert "invalid choice: 'abtest'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["eval-task-id", "eval-solver-id", "abtest-task-id", "abtest-graph-name"])
def test_id_a_table_cannot_hold_is_exit_2_before_any_cell(tmp_path, capsys, monkeypatch, eval_setup, case):
    import quorum.cli
    from quorum.fixtures import graph_template

    cells = []
    monkeypatch.setattr(quorum.cli, "run_method", lambda *a, **kw: cells.append(a))
    monkeypatch.setattr(quorum.cli, "execute", lambda *a, **kw: cells.append(a))
    config_file, _ = eval_setup
    config = json.loads(config_file.read_text())
    tasks = json.loads(Path(config["tasks"]).read_text())
    graph = graph_template("puzzle_pipeline").to_json()
    if case.startswith("abtest"):  # two graph columns of one eval config
        graph["nodes"]["synthesize"]["params"]["solver_id"] = "right"
        config["methods"] = [{"graph": str(tmp_path / "graph.json")}] * 2
    if case.endswith("task-id"):
        tasks[0]["id"] = "a|b"
    elif case == "eval-solver-id":
        config["solvers"][0]["id"] = "s|x"
    elif case == "abtest-graph-name":
        graph["name"] = "v|1"
    Path(config["tasks"]).write_text(json.dumps(tasks))
    config_file.write_text(json.dumps(config))
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    out = tmp_path / "out"
    assert main(["eval", "--config", str(config_file), "--out", str(out)]) == 2
    assert "may not contain '|'" in capsys.readouterr().err
    assert cells == [] and not out.exists()


def test_abtest_graph_names_whose_columns_clash_are_exit_2_before_any_variant(tmp_path, capsys, monkeypatch):
    # The second "a" would become column "a#2", which the first graph already names.
    import quorum.cli
    from quorum.fixtures import graph_template

    runs = []
    monkeypatch.setattr(quorum.cli, "execute", lambda *a, **kw: runs.append(a))
    graph = graph_template("puzzle_pipeline").to_json()
    paths = []
    for i, name in enumerate(["a#2", "a", "a"]):
        paths.append(tmp_path / f"g{i}.json")
        paths[-1].write_text(json.dumps({**graph, "name": name}))
    with pytest.raises(SystemExit, match="2"):
        _graph_eval(tmp_path, _solver_config(tmp_path), paths)
    assert "repeat the column(s) 'a#2'" in capsys.readouterr().err
    assert runs == [] and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("case", [
    "eval-config-is-a-directory", "eval-tasks-is-a-directory", "eval-out-is-a-file",
    "graph-is-a-directory", "graph-config-is-a-directory", "predict-out-is-a-directory", "puzzle-is-a-directory",
])
def test_path_that_cannot_be_read_or_written_is_exit_2(tmp_path, capsys, eval_setup, case):
    from quorum.fixtures import graph_template

    config_file, _ = eval_setup
    directory = tmp_path / "a-directory"
    directory.mkdir()
    task_file = tmp_path / "rot.json"
    task_file.write_text(json.dumps(ROT180_TASK))
    (directory / "rot.json").write_text(json.dumps(ROT180_TASK))  # a directory of puzzles is still not a puzzle
    graph = tmp_path / "olympiad.json"
    graph_template("olympiad_pipeline").save(graph)
    if case == "eval-tasks-is-a-directory":
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), "tasks": str(directory)}))
    argv = {
        "eval-config-is-a-directory": ["eval", "--config", str(directory)],
        "eval-tasks-is-a-directory": ["eval", "--config", str(config_file), "--out", str(tmp_path / "r")],
        "eval-out-is-a-file": ["eval", "--config", str(config_file), "--out", str(task_file)],
        "graph-is-a-directory": ["graph", "run", "--graph", str(directory)],
        "graph-config-is-a-directory": ["graph", "run", "--graph", str(graph), "--config", str(directory)],
        "predict-out-is-a-directory": ["arc", "predict", "--task", str(task_file), "--program", "rotate180",
                                       "--out", str(directory)],
        "puzzle-is-a-directory": ["arc", "verify", "--task", str(directory), "--program", "rotate180"],
    }[case]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [b"1" + b"0" * 5000, b"\xff", b"[" * 100_000],
                         ids=["integer-too-long", "byte-0xff", "nested-too-deep"])
@pytest.mark.parametrize("where", [
    "eval-config", "eval-tasks", "eval-graph", "arc-puzzle", "graph-file", "graph-config", "graph-inputs",
    "abtest-tasks", "mutation-payload",
])
def test_input_that_is_not_utf8_json_is_exit_2(tmp_path, capsys, eval_setup, fault, where):
    from quorum.fixtures import graph_template

    config_file, _ = eval_setup
    bad = tmp_path / "bad.json"
    bad.write_bytes(fault)
    text = os.fsdecode(fault)  # what a command-line argument holding these bytes decodes to
    task_file = tmp_path / "rot.json"
    task_file.write_text(json.dumps(ROT180_TASK))
    graph = tmp_path / "pipeline.json"
    graph_template("puzzle_pipeline").save(graph)
    config = json.loads(config_file.read_text())
    if where == "eval-tasks":
        config["tasks"] = str(bad)
    elif where == "eval-graph":
        config["methods"].append({"graph": str(bad)})
    elif where == "abtest-tasks":  # two graph columns of one eval config
        graph.write_text(graph.read_text().replace('"synthesizer"', '"right"'))
        config.update(tasks=str(bad), methods=[{"graph": str(graph)}] * 2)
    config_file.write_text(json.dumps(config))
    argv = {
        "eval-config": ["eval", "--config", str(bad)],
        "eval-tasks": ["eval", "--config", str(config_file), "--out", str(tmp_path / "r")],
        "eval-graph": ["eval", "--config", str(config_file), "--out", str(tmp_path / "r")],
        "abtest-tasks": ["eval", "--config", str(config_file), "--out", str(tmp_path / "r")],
        "arc-puzzle": ["arc", "verify", "--task", str(bad), "--program", "identity"],
        "graph-file": ["graph", "run", "--graph", str(bad), "--task", str(task_file)],
        "graph-config": ["graph", "run", "--graph", str(graph), "--task", str(task_file), "--config", str(bad)],
        "graph-inputs": ["graph", "run", "--graph", str(graph), "--inputs", text],
        "mutation-payload": ["graph", "mutate", "--graph", str(graph), "--mutation", f"edit_param synthesize {text}"],
    }[where]
    assert main(argv) == 2
    assert "cannot be read as JSON" in capsys.readouterr().err


def test_console_script_installed(tmp_path):
    """The `quorum` command declared in pyproject.toml runs this checkout's code.

    Writes the same launcher pip installs for a console script, so the test
    needs no install and never runs a stale copy found elsewhere on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        entry_point = tomllib.load(f)["project"]["scripts"]["quorum"]
    module, attr = entry_point.split(":")
    launcher = tmp_path / "quorum"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([str(launcher), "game", "ninja", "6"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "k = 3" in result.stdout
