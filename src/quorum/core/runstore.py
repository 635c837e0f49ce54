"""Run persistence.

A run is a directory: ``config.json`` (the configuration snapshot) and
``record.jsonl`` with one JSON object per (task, solver) cell.
``config.json`` holds ``json.dumps(snapshot, sort_keys=True)`` and a
newline; that text names the run (``"run-"`` and the first 12 hex digits
of its sha256), and it is written before the first cell. The cells
stream, in canonical (task, column) order, to ``record.jsonl.tmp``, one
line as each arrives; the file is renamed over ``record.jsonl`` only
after the last cell, so ``record.jsonl`` never holds part of a run, and
a ``record.jsonl.tmp`` left behind holds the cells of an interrupted run
that finished before it stopped. Loading a run rebuilds the result
matrix bit-exactly.
Field names in the files are part of the stable interface:

cell object keys: ``task_id``, ``solver_id``, ``ts_ms``, ``candidate``,
``verdict``, optional ``trace``.
candidate keys: ``answer_kind``, ``answer``, ``solver_id``,
``method_id``, ``seed``, ``elapsed_ms``, ``rationale``, ``error``.
verdict keys: ``status``, ``detail``, ``checks`` (list of
``[name, passed, detail]`` triples).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ..aggregate.matrix import ResultMatrix
from ..errors import ConfigurationError, QuorumError, RecordParseError, json_object, read_json
from .answers import AnswerValue, normalize_answer
from .model import Candidate, Check, Verdict

# One encoder for every cell line: the bytes of json.dumps(cell, sort_keys=True)
# without building an encoder per cell.
_CELL_ENCODER = json.JSONEncoder(sort_keys=True)


def _answer_to_json(answer: Optional[AnswerValue]):
    if answer is None:
        return None
    if answer.kind == "grid":
        return answer.payload.to_lists()
    return answer.payload


def _answer_from_json(kind: Optional[str], payload):
    if kind is None or payload is None:
        return None
    return normalize_answer(payload, kind)


def candidate_to_json(c: Candidate) -> dict:
    return {
        "answer_kind": c.answer.kind if c.answer else None,
        "answer": _answer_to_json(c.answer),
        "solver_id": c.solver_id,
        "method_id": c.method_id,
        "seed": c.seed,
        "elapsed_ms": c.elapsed_ms,
        "rationale": c.rationale,
        "error": c.error,
    }


def candidate_from_json(d: dict) -> Candidate:
    return Candidate(
        answer=_answer_from_json(d.get("answer_kind"), d.get("answer")),
        solver_id=d["solver_id"],
        method_id=d["method_id"],
        seed=d["seed"],
        elapsed_ms=d["elapsed_ms"],
        rationale=d.get("rationale"),
        error=d.get("error"),
    )


def verdict_to_json(v: Verdict) -> dict:
    return {
        "status": v.status,
        "detail": v.detail,
        "checks": [[c.name, c.passed, c.detail] for c in v.checks],
    }


def verdict_from_json(d: dict) -> Verdict:
    return Verdict(d["status"], tuple(Check(n, p, det) for n, p, det in d["checks"]), d["detail"])


@dataclass(frozen=True)
class CellRecord:
    task_id: str
    solver_id: str
    candidate: Candidate
    verdict: Verdict
    ts_ms: int = 0
    trace: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "task_id": self.task_id,
            "solver_id": self.solver_id,
            "ts_ms": self.ts_ms,
            "candidate": candidate_to_json(self.candidate),
            "verdict": verdict_to_json(self.verdict),
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    @classmethod
    def from_json(cls, d: dict) -> "CellRecord":
        return cls(
            task_id=d["task_id"],
            solver_id=d["solver_id"],
            candidate=candidate_from_json(d["candidate"]),
            verdict=verdict_from_json(d["verdict"]),
            ts_ms=d.get("ts_ms", 0),
            trace=d.get("trace"),
        )


def _matrix(outcomes: list[tuple]) -> ResultMatrix:
    """The task x solver boolean matrix of ``(task_id, solver_id, solved,
    elapsed_ms)`` outcomes, ids in first-seen order."""
    rows, columns = {}, {}  # id -> index, in first-seen order
    for task_id, solver_id, _, _ in outcomes:
        rows.setdefault(task_id, len(rows))
        columns.setdefault(solver_id, len(columns))
    solved = [[False] * len(columns) for _ in rows]
    elapsed = [[None] * len(columns) for _ in rows]
    for task_id, solver_id, is_pass, elapsed_ms in outcomes:
        i, k = rows[task_id], columns[solver_id]
        solved[i][k] = is_pass
        elapsed[i][k] = elapsed_ms
    return ResultMatrix(list(rows), list(columns), solved, elapsed)


def _outcome(cell: CellRecord) -> tuple:
    return cell.task_id, cell.solver_id, cell.verdict.is_pass, cell.candidate.elapsed_ms


@dataclass
class RunRecord:
    run_id: str
    config: dict
    cells: list[CellRecord] = field(default_factory=list)

    def to_matrix(self) -> ResultMatrix:
        """Rebuild the task x solver boolean matrix from the cells."""
        return _matrix([_outcome(cell) for cell in self.cells])


class RunStore:
    """Directory-backed store, one subdirectory per run."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dir(self, run_id: str) -> Path:
        return self.root / run_id

    def create_run(self, config: dict) -> str:
        """Write the run that ``config`` names: its directory and its
        ``config.json``. Returns the run id. The config is encoded once, and
        its text is not kept, so a sweep does not hold it."""
        data = json.dumps(config, sort_keys=True).encode()
        run_id = "run-" + hashlib.sha256(data).hexdigest()[:12]
        run_dir = self._dir(run_id)
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "config.json", "wb") as fh:
            fh.write(data)
            fh.write(b"\n")
        return run_id

    def record_run(self, run_id: str, cells: Iterable[CellRecord]) -> ResultMatrix:
        """Store the cells of a created run, arriving in canonical (task,
        column) order, and return its result matrix. Each cell is appended
        to ``record.jsonl.tmp`` as it arrives, and only its outcome is kept;
        an exception from ``cells`` leaves the lines written so far in the
        tmp file and no ``record.jsonl``."""
        run_dir = self._dir(run_id)
        tmp = run_dir / "record.jsonl.tmp"
        outcomes = []
        with open(tmp, "w") as fh:
            for cell in cells:
                fh.write(_CELL_ENCODER.encode(cell.to_json()))
                fh.write("\n")
                outcomes.append(_outcome(cell))
        os.replace(tmp, run_dir / "record.jsonl")
        return _matrix(outcomes)

    def load_run(self, run_id: str) -> RunRecord:
        """The stored run; a missing run raises FileNotFoundError, and a
        corrupt ``config.json`` (byte offset 0) or cell line (the line's
        byte offset) raises RecordParseError."""
        run_dir = self._dir(run_id)
        config_path = run_dir / "config.json"
        record_path = run_dir / "record.jsonl"
        if not record_path.exists():
            raise FileNotFoundError(f"no run {run_id!r} under {self.root}")
        try:
            config = json_object(read_json(config_path, "run config"), f"run config {config_path}")
        except ConfigurationError as exc:
            raise RecordParseError(str(exc), 0) from exc
        cells = []
        offset = 0
        with open(record_path, "rb") as fh:
            for raw in fh:
                line = raw.decode("utf-8", errors="replace").strip()
                if line:
                    try:
                        cells.append(CellRecord.from_json(json.loads(line)))
                    except (ValueError, KeyError, TypeError, AttributeError, RecursionError, QuorumError) as exc:
                        raise RecordParseError(f"corrupt cell record: {exc}", offset) from exc
                offset += len(raw)
        return RunRecord(run_id, config, cells)
