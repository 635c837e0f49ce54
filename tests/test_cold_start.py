"""Cold start: no command needs numpy, and requests loads only when used.

Each check runs in a fresh interpreter, since this one has imported both
long ago.  The interpreter blocks ``import numpy``, so a command that
exits 0 there shows that numpy is not needed, not only that it was not
loaded.  A command that needs no HTTP (puzzle verification, a graph
without solvers, a scripted sweep of reference-answer or game-answer
tasks, an exact game value or its simulation, an ``http-model`` sweep
whose every reply is cached) must not pay for requests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# With numpy blocked, prints as JSON each command's exit code and whether
# requests is loaded, after importing quorum.cli and after each command
# given as a JSON list of argv lists.
PROBE = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from quorum.cli import main

def loaded():
    return [name for name in ("requests",) if name in sys.modules]

points = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    points.append([" ".join(argv[:2]), code, loaded()])
print(json.dumps(points))
"""


def _probe(commands, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], cwd=cwd,
                            capture_output=True, text=True, env=env, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def _rot180_task(size=30):
    def grid(seed):
        return [[(seed + 7 * r + 3 * c) % 10 for c in range(size)] for r in range(size)]

    def rotated(g):
        return [row[::-1] for row in g[::-1]]

    pairs = [{"input": grid(s), "output": rotated(grid(s))} for s in range(3)]
    return {"train": pairs[:2], "test": pairs[2:]}


def test_puzzle_and_graph_commands_load_neither_numpy_nor_requests(tmp_path):
    task = tmp_path / "task.json"
    task.write_text(json.dumps(_rot180_task()))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "name": "prompt_and_check",
        "nodes": {"prompt": {"op": "puzzle_prompt", "params": {}}, "check": {"op": "puzzle_verify", "params": {}}},
        "edges": [],
        "inputs": {"task": [["prompt", "task"], ["check", "task"]], "program_text": [["check", "program_text"]]},
        "outputs": {"prompt": ["prompt", "prompt"], "passed": ["check", "passed"]},
    }))
    points = _probe([
        ["arc", "verify", "--task", str(task), "--program", "rotate180"],
        ["graph", "run", "--graph", str(graph), "--task", str(task), "--inputs", '{"program_text": "rotate180"}'],
    ], tmp_path)
    assert points == [["import", 0, []], ["arc verify", 0, []], ["graph run", 0, []]]


def _scripted_sweep(tmp_path, task, answers):
    """Runs one scripted sweep of ``task`` and returns what it loaded."""
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([task]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "solvers": [{"id": "s", "kind": "scripted", "params": {"table": {"*": [[a, 0.5] for a in answers]}}}],
        "methods": [{"method_id": "best_of_n", "n": 4}, {"method_id": "self_consistency", "n": 3}],
        "tasks": str(tasks),
    }))
    [_, (command, code, loaded)] = _probe([["eval", "--config", str(config), "--out", str(tmp_path / "runs")]],
                                          tmp_path)
    assert (command, code) == ("eval --config", 0)
    return loaded


def test_scripted_sweep_never_loads_requests(tmp_path):
    # Nor numpy: a sweep of reference-answer tasks builds its matrix in plain Python.
    task = {"id": "t1", "prompt": "?", "answer_kind": "choice", "reference": "A"}
    assert _scripted_sweep(tmp_path, task, ["A", "B"]) == []


def test_game_answer_sweep_loads_neither_numpy_nor_requests(tmp_path):
    # The exact solvers are plain-integer algebra.
    task = {"id": "g", "category": "game", "prompt": "ninja 6", "answer_kind": "integer",
            "verifier": {"kind": "game_answer", "params": {"game": "ninja", "n": 6}}}
    assert _scripted_sweep(tmp_path, task, ["3", "4"]) == []


def test_game_value_and_simulation_load_neither_numpy_nor_requests(tmp_path):
    # A simulation draws from the standard library's seeded random.Random.
    points = _probe([["game", "ninja", "6"], ["game", "coinflip", "4", "5"],
                     ["game", "ninja", "6", "--simulate", "1"]], tmp_path)
    assert points == [["import", 0, []], ["game ninja", 0, []], ["game coinflip", 0, []],
                      ["game ninja", 0, []]]


def test_fully_cached_http_model_sweep_never_loads_requests(tmp_path, monkeypatch):
    # Fill the reply cache here, with ChatClient.complete replaced by a
    # writer of cache entries; the probe then replays the same sweep with
    # no API key, so a single miss would fail the command.
    from quorum.adapters.chat import ChatClient
    from quorum.cli import main

    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([{"id": f"t{i}", "prompt": f"question {i}?", "answer_kind": "choice",
                                  "reference": "A"} for i in range(2)]))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "solvers": [{"id": "m", "kind": "http-model", "params": {
            "base_url": "http://127.0.0.1:1", "model": "cached-model", "api_key_env": "QUORUM_COLD_START_KEY",
            "cache_dir": str(tmp_path / "cache"), "max_retries": 0}}],
        "methods": [{"method_id": "best_of_n", "n": 3}, {"method_id": "self_consistency", "n": 3}],
        "tasks": str(tasks),
    }))

    def complete(client, prompt, seed=0):
        reply = "A" if seed % 2 else "B"
        client._cache_write(client.cache_key(prompt, seed), {"prompt": prompt},
                            {"choices": [{"message": {"role": "assistant", "content": reply}}]})
        return reply

    monkeypatch.setattr(ChatClient, "complete", complete)
    monkeypatch.delenv("QUORUM_COLD_START_KEY", raising=False)
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "fill")]) == 0
    assert list((tmp_path / "cache").glob("*.json"))
    [_, point] = _probe([["eval", "--config", str(config), "--out", str(tmp_path / "runs")]], tmp_path)
    assert point == ["eval --config", 0, []]
