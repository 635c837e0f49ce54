"""Fill the reply cache of sweep-replay, before any timing.

    python3 benchmarks/replay.py --workdir DIR --seed N --seconds S

``run.py`` runs this in a process of its own, so that the process that
measures set-up never runs ``quorum``.  It writes the replay commands to
``plan.jsonl``, one ``[argv, spec]`` a line, their reply cache under
``cache/``, and the reply given to each request seed to ``replies.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def fill_replay(workdir: Path, seed: int, seconds: float, commands: int = 0) -> dict[str, str]:
    """Write the inputs of the replay commands and cache every reply.

    The commands run here once, with ``ChatClient.complete`` replaced by
    the benchmark's reply table, to learn which (prompt, seed) pairs they
    request; commands are added until this has taken the run length (or,
    given ``commands``, until there are that many).  Filling a command takes about as long as replaying it, so
    this covers the timed run; if the worker runs out of commands, it
    stops early and reports over the time it ran.
    Each cache entry is a hard link to one file per distinct reply text
    (``ChatClient`` reads only the response from it).  No socket is opened.
    Returns the reply given to each request seed, which is also written to
    ``replies.json``.
    """
    sys.path.insert(0, str(SRC))
    from quorum.adapters.chat import ChatClient
    from quorum.cli import main as quorum_main

    cache, bodies = str(workdir / "cache"), workdir / "replies"
    os.makedirs(cache, exist_ok=True)
    bodies.mkdir(parents=True, exist_ok=True)
    tables: dict[tuple, list] = {}
    replies: dict[str, str] = {}
    sources: dict[str, str] = {}

    def complete(client, prompt, seed_=0):
        reply = workloads.replay_reply(seed, client.model, prompt, seed_, tables)
        if replies.setdefault(str(seed_), reply) != reply:
            raise RuntimeError(f"request seed {seed_} maps to two replies")
        source = sources.get(reply)
        if source is None:
            source = sources[reply] = str(bodies / (hashlib.sha256(reply.encode()).hexdigest() + ".json"))
            Path(source).write_text(json.dumps({"request": {"shared_reply": True}, "response": {
                "choices": [{"message": {"role": "assistant", "content": reply}}]}}))
        entry = f"{cache}/{client.cache_key(prompt, seed_)}.json"
        try:
            os.link(source, entry)
        except FileExistsError:
            pass
        except OSError:
            shutil.copyfile(source, entry)
        return reply

    commands_made = 0
    original = ChatClient.complete
    ChatClient.complete = complete
    start = time.perf_counter()
    try:
        while (commands_made < commands if commands
               else not commands_made or time.perf_counter() - start < seconds):
            argv, spec = workloads.make_replay(workdir, seed, commands_made)
            for q in spec["tasks"]:
                for sid, table in q["tables"].items():
                    tables[(f"bench-{sid}", q["id"])] = table
            fill_argv = list(argv)
            fill_argv[fill_argv.index("--out") + 1] = str(workdir / "fill")
            with contextlib.redirect_stdout(io.StringIO()):
                if quorum_main(fill_argv) != 0:
                    raise RuntimeError("filling the reply cache failed")
            with open(workdir / "plan.jsonl", "a") as fh:
                fh.write(json.dumps([argv, spec]) + "\n")
            commands_made += 1
    finally:
        ChatClient.complete = original
    shutil.rmtree(workdir / "fill")
    workloads.write_json(workdir / "replies.json", replies)
    return replies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    fill_replay(Path(args.workdir), args.seed, args.seconds)
    with open(Path(args.workdir) / "plan.jsonl") as fh:
        made = sum(1 for _ in fh)
    print(f"reply cache filled for {made} commands in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
