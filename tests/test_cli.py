"""Command-line interface: sweeps, puzzle commands, games, graphs."""

import json
import os
import subprocess
import sys
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
        assert (run_dir / "config.json").exists()
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

    def test_parallel_matches_serial(self, eval_setup):
        config_file, tmp_path = eval_setup
        records = []
        for label, flags in (("serial", []), ("parallel", ["--parallel", "4"])):
            out = tmp_path / label
            assert main(["eval", "--config", str(config_file), "--out", str(out), *flags]) == 0
            [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
            records.append((run_dir / "record.jsonl").read_bytes())
        assert records[0] == records[1]

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
        ],
        ids=["unknown-answer-kind", "no-prompt", "coinflip-as-integer", "puzzle-without-task",
             "unknown-verifier-solver", "unknown-extra-solver", "solver-without-id", "n-as-text",
             "rounds-as-text", "ragged-puzzle-grid", "intractable-game", "game-parameter-as-text"],
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


def test_golden_record_digest(tmp_path):
    """A fixed-seed sweep over all nine methods and all three verifier kinds
    writes the same record.jsonl bytes in fresh interpreters, whatever the
    string-hash seed."""
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "tasks.json").write_text(json.dumps(GOLDEN_TASKS))
    (tmp_path / "config.json").write_text(json.dumps({**GOLDEN_CONFIG, "tasks": str(tmp_path / "tasks.json")}))
    digests = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"runs-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "quorum.cli", "eval", "--config", str(tmp_path / "config.json"),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        [run_dir] = [p for p in out.iterdir() if p.name.startswith("run-")]
        digests.append(sha256((run_dir / "record.jsonl").read_bytes()).hexdigest())
    assert digests == [GOLDEN_RECORD_SHA256] * 2


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
        out = tmp_path / "coin.json"
        assert main(["--seed", "3", "game", "coinflip", "2", "3",
                     "--simulate", "4", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert len(record["simulation"]["total_rewards"]) == 4

    def test_intractable_is_exit_2(self, capsys):
        assert main(["game", "coinflip", "6", "6"]) == 2

    def test_bad_arity_is_exit_2(self, capsys):
        for argv in (["game", "coinflip", "2"], ["game", "coinflip", "x", "3"]):
            assert main(argv) == 2
            assert "usage: game coinflip M N" in capsys.readouterr().err


def _solver_config(tmp_path, program_text="rotate180"):
    config = {"solvers": [{"id": "synthesizer", "kind": "scripted",
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
        # puzzle task through abtest: the tasks' verifiers judge the answers.
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
        out = tmp_path / "matrix.json"
        assert main(["graph", "abtest", "--graphs", str(olympiad), str(small), "--tasks",
                     str(tmp_path / "tasks.json"), "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["solved"] == [[1, 1]]

    def test_bad_graph_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", "run", "--graph", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

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
        from quorum.graph import Mutation, PipelineGraph, mutate as apply_mutation

        tasks = [{"id": f"t{i}", "prompt": "?", "answer_kind": "text", "reference": "yes"}
                 for i in range(6)]
        task_file = tmp_path / "tasks.json"
        task_file.write_text(json.dumps(tasks))
        base = PipelineGraph.from_json({
            "name": "small",
            "nodes": {"m": {"op": "run_method",
                            "params": {"method_id": "best_of_n", "n": 1, "solver_id": "s"}}},
            "edges": [],
            "inputs": {"task": [["m", "task"]]},
            "outputs": {"passed": ["m", "passed"]},
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
        out = tmp_path / "matrix.json"
        code = main(["graph", "abtest", "--graphs", str(g1), str(g2),
                     "--tasks", str(task_file), "--config", str(solver_config),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["solver_ids"] == ["small", "small#1"] or len(payload["solver_ids"]) == 2


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
