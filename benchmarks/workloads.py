"""Seeded inputs for the four workloads.

Everything here is a pure function of the workload seed and an index, so
the same seed always gives the same files.  This module never imports
``quorum``: generating inputs must not warm the program under test.

Each ``make_*`` function writes one command's inputs under a directory and
returns ``(argv, spec)``: the ``quorum`` arguments to run and the facts
the checkers need (references, solver tables, programs, game params).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import numpy as np

import oracle

# -- shared ------------------------------------------------------------------


def rng_for(seed: int, *labels) -> random.Random:
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def unit(seed: int, *labels) -> float:
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


SKILLS = (0.1, 0.3, 0.5, 0.7, 0.9)

TOPICS = ("math", "physics", "chemistry", "biology", "computer science", "humanities", "engineering")
FILLER = (
    "Consider the system described below.", "Assume ideal conditions throughout.",
    "A sample is prepared at room temperature.", "The sequence is defined recursively.",
    "Two observers disagree about the ordering.", "Each step preserves the invariant.",
    "Count only the distinct configurations.", "Ignore second-order effects.",
    "The manuscript dates from the late period.", "The graph has no isolated vertices.",
    "The reaction proceeds in two stages.", "Boundary terms vanish at infinity.",
    "All quantities are measured in SI units.", "The protein folds into a stable state.",
)
WORDS = (
    "carbon monoxide", "benzene", "entropy", "the moon", "prime", "catalan number", "isomorphism",
    "photosynthesis", "mitochondria", "tungsten", "helium", "gradient descent", "red giant",
    "latin", "sanskrit", "homotopy", "eigenvalue", "ribosome", "polymer", "quasar", "neutrino",
    "baroque", "feudalism", "hash table", "dijkstra", "fermion", "boson", "ozone", "glucose",
    "tectonics", "basalt", "granite", "sonnet", "haiku", "topology", "lattice", "manifold",
    "enzyme", "allele", "phoneme",
)
TRIGGERS = {
    "Decide whether the latest attempt": {"*": [["1", 0.6], ["0", 0.4]]},
    "Draft a short solution plan": {"*": [["Plan: restate, then eliminate.", 0.5],
                                          ["Plan: check small cases first.", 0.5]]},
    "Derive general principles": {"*": [["1. Read every option.\n2. Check units and signs.", 1.0]]},
}
LEAP_EXAMPLES = [["What is 2 + 2?", "4"], ["Which gas do plants absorb?", "carbon dioxide"]]


def _split(total: float, forms: list[str], weights: tuple) -> list[list]:
    return [[form, total * w] for form, w in zip(forms, weights)]


# -- reference-checked questions (sweep-reference, sweep-replay) -------------

REF_SOLVERS = ("s1", "s2", "s3")
REF_KINDS = ("choice", "integer", "text")
REF_TASKS_PER_COMMAND = 1000
REPLAY_TASKS_PER_COMMAND = 125  # the fill runs every replay command once more before timing
REF_METHODS = [
    {"method_id": "zero_shot"},
    {"method_id": "best_of_n", "n": 8},
    {"method_id": "self_consistency", "n": 5},
    {"method_id": "mixture_of_agents", "params": {"extra_solver_ids": ["s2", "s3"]}},
    {"method_id": "mcts", "n": 4},
    {"method_id": "rto", "n": 2},
    {"method_id": "prover_verifier", "rounds": 2, "params": {"verifier_solver_id": "s1"}},
    {"method_id": "plan_search", "n": 3},
    {"method_id": "leap", "params": {"examples": LEAP_EXAMPLES}},
]


def hle_question(seed: int, i: int, solvers=REF_SOLVERS) -> dict:
    """One question in HLE shape with a per-solver answer table.

    Kinds rotate choice / integer / text, so every batch of three holds
    one of each.  Each solver answers correctly with probability ``p``
    (drawn from SKILLS), split over two surface forms that normalize to
    the reference; the rest goes to distractors (and, for integers, to a
    reply with no number in it).
    """
    r = rng_for(seed, "hle", i)
    tid = f"hle-{i:05d}"
    kind = REF_KINDS[i % 3]
    body = " ".join(r.choice(FILLER) for _ in range(r.randint(4, 9)))
    prompt = f"[{tid}] {r.choice(TOPICS)}: {body}"
    if kind == "choice":
        options = r.sample(WORDS, 5)
        ref = "ABCDE"[r.randrange(5)]
        prompt += "\nAnswer choices:\n" + "\n".join(f"{k}. {o}" for k, o in zip("ABCDE", options))
        right = [ref, f"({ref.lower()})"]
        wrong = [k for k in "ABCDE" if k != ref][:3]
    elif kind == "integer":
        value = r.randint(-40, 400)
        ref = str(value)
        prompt += "\nGive the answer as an integer."
        right = [ref, f"The answer is {value}."]
        wrong = [str(value + r.randint(1, 9)), str(value - r.randint(1, 9)), "no idea"]
    else:
        ref = r.choice(WORDS)
        prompt += "\nAnswer with a short phrase."
        right = [ref, f"  {ref.upper()} "]
        wrong = [w for w in r.sample(WORDS, 4) if w != ref][:3]
    tables, two_stage = {}, {}
    for sid in solvers:
        p = r.choice(SKILLS)
        tables[sid] = _split(p, right, (0.6, 0.4)) + _split(1 - p, wrong, (0.5, 0.3, 0.2))
        q = min(0.95, p + 0.2)
        two_stage[sid] = [
            ["rationale: direct", 0.5, tables[sid]],
            ["rationale: careful", 0.5, _split(q, right, (0.6, 0.4)) + _split(1 - q, wrong, (0.5, 0.3, 0.2))],
        ]
    return {"id": tid, "category": "hle", "prompt": prompt, "answer_kind": kind,
            "reference": ref, "tables": tables, "two_stage": two_stage}


def _questions(seed: int, index: int, count: int) -> tuple[list[dict], list[dict]]:
    """The questions of command ``index``, ``count`` to a command, and their task entries."""
    questions = [hle_question(seed, i) for i in range(index * count, (index + 1) * count)]
    tasks = [{k: q[k] for k in ("id", "category", "prompt", "answer_kind", "reference")} for q in questions]
    return questions, tasks


def make_reference(workdir: Path, seed: int, index: int) -> tuple[list[str], dict]:
    """One ``quorum eval`` over a fresh batch of questions, scripted solvers."""
    questions, tasks = _questions(seed, index, REF_TASKS_PER_COMMAND)
    solvers = [
        {"id": sid, "kind": "scripted", "params": {
            "table": {q["id"]: q["tables"][sid] for q in questions},
            "two_stage": {q["id"]: q["two_stage"][sid] for q in questions},
            "prompt_triggers": TRIGGERS,
            "rng_seed": int(unit(seed, "rng", sid) * 1e6),
        }}
        for sid in REF_SOLVERS
    ]
    return _eval_command(workdir, index, seed, tasks, solvers, REF_METHODS, questions)


def _eval_command(workdir, index, seed, tasks, solvers, methods, facts, parallel=None):
    cdir = workdir / "inputs" / f"c{index:04d}"
    write_json(cdir / "tasks.json", tasks)
    config = {"solvers": solvers, "methods": methods, "tasks": str(cdir / "tasks.json")}
    write_json(cdir / "config.json", config)
    eval_seed = int(unit(seed, "eval", index) * 1e9)
    out = workdir / "out" / f"c{index:04d}"
    argv = ["--seed", str(eval_seed), "eval", "--config", str(cdir / "config.json"), "--out", str(out)]
    if parallel:
        argv += ["--parallel", str(parallel)]
    spec = {"kind": "eval", "out": str(out), "tasks": facts, "methods": methods,
            "solvers": [s["id"] for s in solvers]}
    return argv, spec


# -- replayed model replies (sweep-replay) ------------------------------------

REPLAY_KEY_ENV = "QUORUM_BENCH_UNSET_API_KEY"
REPLAY_BASE_URL = "http://127.0.0.1:9/v1"  # discard port: nothing listens
BACKWARD_REPLY = "I cannot restate the question."
_TASK_ID_RE = re.compile(r"\[(hle-\d+)\]")


def make_replay(workdir: Path, seed: int, index: int) -> tuple[list[str], dict]:
    """Same questions and methods as sweep-reference, answered by
    ``http-model`` solvers whose every reply sits in the disk cache."""
    questions, tasks = _questions(seed, index, REPLAY_TASKS_PER_COMMAND)
    solvers = [
        {"id": sid, "kind": "http-model", "params": {
            "base_url": REPLAY_BASE_URL, "model": f"bench-{sid}", "api_key_env": REPLAY_KEY_ENV,
            "cache_dir": str(workdir / "cache"), "max_retries": 0, "timeout_s": 1.0,
        }}
        for sid in REF_SOLVERS
    ]
    return _eval_command(workdir, index, seed, tasks, solvers, REF_METHODS, questions)


def replay_reply(seed: int, model: str, prompt: str, request_seed: int, tables: dict) -> str:
    """The reply stored for one request; ``tables`` maps (model, task id)
    to that solver's answer table."""
    u = unit(seed, "reply", model, request_seed)
    for trigger, by_task in TRIGGERS.items():
        if prompt.startswith(trigger):
            return _draw(by_task["*"], u)
    m = _TASK_ID_RE.search(prompt)
    if m is None or (model, m.group(1)) not in tables:
        return BACKWARD_REPLY  # the round-trip method's backward prompt is an answer, not a question
    return _draw(tables[(model, m.group(1))], u)


def _draw(table, u: float) -> str:
    acc = 0.0
    for answer, p in table:
        acc += p
        if u < acc:
            return answer
    return table[-1][0]


# -- verified puzzles and games (sweep-verified) ------------------------------

VER_SOLVERS = ("v1", "v2")
VER_PUZZLES_PER_COMMAND = 4
VER_GAMES = ("ninja", "sequence", "turbo", "coinflip", "coinflip", "ninja")
VER_METHODS = [
    {"method_id": "zero_shot"},
    {"method_id": "best_of_n", "n": 4},
    {"method_id": "plan_search", "n": 3},
    {"method_id": "mcts", "n": 4},
]
VER_PARALLEL = 2
COINFLIP_BOARDS = ((2, 3), (3, 3), (2, 4), (2, 5), (3, 4), (2, 6), (3, 5))
PLAN_TRIGGER = {"Draft a short solution plan": {"*": [["Plan: compare the grids cell by cell.", 1.0]]}}


def random_grid(rng: np.random.Generator, h: int = 30, w: int = 30) -> np.ndarray:
    grid = rng.integers(1, 10, size=(h, w))
    grid[rng.random((h, w)) < 0.4] = 0
    return grid


def random_program(r: random.Random) -> str:
    ops = []
    for _ in range(r.randint(1, 3)):
        kind = r.choice(("geom", "geom", "recolor", "translate"))
        if kind == "geom":
            ops.append(r.choice(("rotate90", "rotate180", "rotate270", "flip_h", "flip_v", "transpose")))
        elif kind == "recolor":
            src = r.sample(range(1, 10), 2)
            ops.append("recolor(" + ", ".join(f"{a}->{r.randrange(10)}" for a in src) + ")")
        else:
            ops.append(f"translate({r.randint(-3, 3)}, {r.randint(-3, 3)}, {r.randrange(10)})")
    return "; ".join(ops)


def make_puzzle(seed: int, label: str, n_train: int = 3, n_test: int = 1) -> tuple[dict, str, list[str]]:
    """A 30x30 puzzle, the program that solves it, and three programs that
    fail on its train pairs (checked with the numpy reference)."""
    r = rng_for(seed, "puzzle", label)
    g = np.random.default_rng(int(unit(seed, "grid", label) * 2**63))
    program = random_program(r)
    ops = oracle.parse(program)
    train = [(x, oracle.apply(ops, x)) for x in (random_grid(g) for _ in range(n_train))]
    test = [(x, oracle.apply(ops, x)) for x in (random_grid(g) for _ in range(n_test))]
    wrong = []
    while len(wrong) < 3:
        other = random_program(r)
        if not oracle.solves(oracle.parse(other), train):
            wrong.append(other)
    task = {"train": [{"input": x.tolist(), "output": y.tolist()} for x, y in train],
            "test": [{"input": x.tolist(), "output": y.tolist()} for x, y in test]}
    return task, program, wrong


def game_params(r: random.Random, game: str) -> tuple[dict, str]:
    if game == "ninja":
        return {"game": "ninja", "n": r.choice((3, 4, 5))}, "integer"
    if game == "sequence":
        return {"game": "sequence", "bound": r.choice((2, 3, 4))}, "integer"
    if game == "turbo":
        return {"game": "turbo", "rows": 4, "cols": 3}, "integer"
    m, n = r.choice(COINFLIP_BOARDS)
    return {"game": "coinflip", "m": m, "n": n}, "text"


def make_verified(workdir: Path, seed: int, index: int) -> tuple[list[str], dict]:
    """One ``quorum eval --parallel 2`` over fresh puzzles and games."""
    r = rng_for(seed, "verified", index)
    facts, tasks = [], []
    tables = {sid: {} for sid in VER_SOLVERS}
    for j in range(VER_PUZZLES_PER_COMMAND):
        tid = f"pz-{index * VER_PUZZLES_PER_COMMAND + j:05d}"
        puzzle, program, wrong = make_puzzle(seed, tid)
        variant = program.upper().replace(";", " ;").replace("->", " -> ")
        for sid in VER_SOLVERS:
            p = r.choice(SKILLS)
            tables[sid][tid] = (_split(p, [program, variant], (0.7, 0.3))
                                + _split(1 - p, wrong + ["rotate 90 degrees"], (0.4, 0.3, 0.2, 0.1)))
        tasks.append({"id": tid, "category": "puzzle", "prompt": f"[{tid}] Find the grid transformation.",
                      "answer_kind": "text", "verifier": {"kind": "arc_program", "params": {"task": puzzle}}})
        facts.append({"id": tid, "answer_kind": "text", "puzzle": puzzle, "program": program,
                      "tables": {sid: tables[sid][tid] for sid in VER_SOLVERS}})
    for j, game in enumerate(VER_GAMES):
        tid = f"gm-{index * len(VER_GAMES) + j:05d}"
        params, kind = game_params(r, game)
        right = oracle.game_value(params)
        if kind == "integer":
            wrong = [str(int(right) + 1), str(max(0, int(right) - 1)), str(int(right) + 5)]
        else:
            wrong = ["false" if right == "true" else "true", "yes", "unknown"]
        for sid in VER_SOLVERS:
            p = r.choice(SKILLS)
            tables[sid][tid] = [[right, p]] + _split(1 - p, wrong, (0.5, 0.3, 0.2))
        tasks.append({"id": tid, "category": "game", "prompt": f"[{tid}] Solve the game {params}.",
                      "answer_kind": kind, "verifier": {"kind": "game_answer", "params": params}})
        facts.append({"id": tid, "answer_kind": kind, "game": params,
                      "tables": {sid: tables[sid][tid] for sid in VER_SOLVERS}})
    solvers = [{"id": sid, "kind": "scripted", "params": {
        "table": tables[sid], "prompt_triggers": PLAN_TRIGGER,
        "rng_seed": int(unit(seed, "rng", sid) * 1e6)}} for sid in VER_SOLVERS]
    return _eval_command(workdir, index, seed, tasks, solvers, VER_METHODS, facts, VER_PARALLEL)


# -- short commands (cli-pipeline) --------------------------------------------

GRAPHS = Path(__file__).resolve().parent.parent / "src" / "quorum" / "fixtures" / "graphs"
# The olympiad template on a game task: the solver always gives the exact
# value, so the pipeline should report passed=true.  These inputs do not
# depend on the seed; only the task id changes from round to round.
GAME_ROUND_TASKS = (({"game": "ninja", "n": 5}, "3"), ({"game": "sequence", "bound": 4}, "7"),
                    ({"game": "turbo", "rows": 4, "cols": 3}, "3"))


def make_cli_round(workdir: Path, seed: int, index: int) -> list[tuple[list[str], dict]]:
    """One round of seven short commands, each on inputs of its own."""
    rdir = workdir / "inputs" / f"r{index:04d}"
    out = workdir / "out" / f"r{index:04d}"
    r = rng_for(seed, "round", index)
    out.mkdir(parents=True, exist_ok=True)
    olympiad = json.loads((GRAPHS / "olympiad_pipeline.json").read_text())
    olympiad_n = olympiad["nodes"]["attempt"]["params"]["n"]  # best_of_n draws exactly n samples
    cmds = []

    def puzzle_file(name, n_train, n_test):
        # The file name is the task id: unique, so no command sees a task twice.
        puzzle, program, wrong = make_puzzle(seed, f"r{index}-{name}", n_train, n_test)
        path = rdir / f"{name}-r{index:04d}.json"
        write_json(path, puzzle)
        return str(path), puzzle, program, wrong

    path, puzzle, program, wrong = puzzle_file("verify_ok", 3, 1)
    cmds.append((["arc", "verify", "--task", path, "--program", program, "--out", str(out / "verify_ok.json")],
                 {"kind": "arc_verify", "task_file": path, "program": program, "out": str(out / "verify_ok.json")}))
    path, puzzle, program, wrong = puzzle_file("verify_bad", 3, 1)
    cmds.append((["arc", "verify", "--task", path, "--program", wrong[0], "--out", str(out / "verify_bad.json")],
                 {"kind": "arc_verify", "task_file": path, "program": wrong[0], "out": str(out / "verify_bad.json")}))
    path, puzzle, program, _ = puzzle_file("predict", 3, 2)
    cmds.append((["arc", "predict", "--task", path, "--program", program, "--out", str(out / "predict.json")],
                 {"kind": "arc_predict", "task_file": path, "program": program, "out": str(out / "predict.json")}))
    path, puzzle, _, _ = puzzle_file("augment", 3, 1)
    cmds.append((["arc", "augment", "--task", path, "--out", str(out / "augment")],
                 {"kind": "arc_augment", "task_file": path, "task_id": Path(path).stem, "out": str(out / "augment")}))

    # Graph runs share one solver config per round.
    path, puzzle, program, wrong = puzzle_file("graph_puzzle", 3, 1)
    synthesized = program if r.random() < 0.5 else wrong[0]
    question = hle_question(seed, 100_000 + index, solvers=("primary",))
    game, answer = GAME_ROUND_TASKS[index % len(GAME_ROUND_TASKS)]
    config = {"solvers": [
        {"id": "synthesizer", "kind": "scripted", "params": {"table": {"*": [[synthesized, 1.0]]}}},
        {"id": "primary", "kind": "scripted", "params": {"table": {
            question["id"]: question["tables"]["primary"], f"game-{index:04d}": [[answer, 1.0]]}}},
    ]}
    write_json(rdir / "solvers.json", config)
    graph_seed = str(int(unit(seed, "graph", index) * 1e9))
    cmds.append((["--seed", graph_seed, "graph", "run", "--graph", str(GRAPHS / "puzzle_pipeline.json"),
                  "--task", path, "--config", str(rdir / "solvers.json"), "--out", str(out / "graph_puzzle.json")],
                 {"kind": "graph_puzzle", "task_file": path, "program": synthesized,
                  "out": str(out / "graph_puzzle.json")}))
    qtask = {k: question[k] for k in ("id", "category", "prompt", "answer_kind", "reference")}
    cmds.append((["--seed", graph_seed, "graph", "run", "--graph", str(GRAPHS / "olympiad_pipeline.json"),
                  "--inputs", json.dumps({"task": qtask}), "--config", str(rdir / "solvers.json"),
                  "--out", str(out / "graph_question.json")],
                 {"kind": "graph_olympiad", "task": question, "n": olympiad_n, "out": str(out / "graph_question.json")}))
    gtask = {"id": f"game-{index:04d}", "category": "game",
             "prompt": f"[game-{index:04d}] Give the exact value of {game['game']} at {game}.",
             "answer_kind": "integer", "verifier": {"kind": "game_answer", "params": game}}
    cmds.append((["--seed", graph_seed, "graph", "run", "--graph", str(GRAPHS / "olympiad_pipeline.json"),
                  "--inputs", json.dumps({"task": gtask}), "--config", str(rdir / "solvers.json"),
                  "--out", str(out / "graph_game.json")],
                 {"kind": "graph_olympiad", "task": {**gtask, "game": game}, "n": olympiad_n,
                  "out": str(out / "graph_game.json")}))
    return cmds


WORKLOADS = ("sweep-reference", "sweep-verified", "sweep-replay", "cli-pipeline")


def main(argv=None) -> int:
    """Write the inputs of the first K rounds of a workload for one seed."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.workload == "sweep-replay":
        import replay  # the reply cache is filled by running the commands once

        replay.fill_replay(out, args.seed, seconds=0.0, commands=args.rounds)
        return 0
    make = {"sweep-reference": make_reference, "sweep-verified": make_verified,
            "cli-pipeline": make_cli_round}[args.workload]
    for index in range(args.rounds):
        made = make(out, args.seed, index)
        for n, (argv_, spec) in enumerate(made if isinstance(made, list) else [made]):
            write_json(out / "specs" / f"{index:04d}-{n}.json", {"argv": argv_, "spec": spec})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
