"""Puzzle model and loading from the public interchange format.

A task file is a JSON object with ``train`` and ``test`` arrays of
``{"input": [[int]], "output": [[int]]}`` pairs; test outputs may be
absent.  Directories of such files load in sorted order; invalid files
are reported individually and do not block valid ones.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import ConfigurationError, GridBoundsError
from ..grids import Grid

log = logging.getLogger(__name__)


class TaskFormatError(ConfigurationError):
    pass


@dataclass(frozen=True)
class ArcTask:
    id: str
    train: tuple[tuple[Grid, Grid], ...]
    test: tuple[tuple[Grid, Optional[Grid]], ...]

    def __post_init__(self):
        if not self.train:
            raise TaskFormatError(f"task {self.id!r} has no training pairs")

    @classmethod
    def from_dict(cls, data: dict, task_id: str) -> "ArcTask":
        def grid(node, where):
            try:
                return Grid.from_rows(node)
            except (GridBoundsError, TypeError) as exc:
                raise TaskFormatError(f"task {task_id!r} {where}: {exc}") from exc

        def pairs(name):
            entries = data.get(name, [])
            if not isinstance(entries, list) or not all(isinstance(pair, dict) for pair in entries):
                raise TaskFormatError(f"task {task_id!r}: {name!r} must be a list of objects")
            return enumerate(entries)

        if not isinstance(data, dict) or "train" not in data:
            raise TaskFormatError(f"task {task_id!r}: expected an object with a 'train' array")
        train = []
        for i, pair in pairs("train"):
            if "input" not in pair or "output" not in pair:
                raise TaskFormatError(f"task {task_id!r} train[{i}]: needs input and output")
            train.append((grid(pair["input"], f"train[{i}].input"), grid(pair["output"], f"train[{i}].output")))
        test = []
        for i, pair in pairs("test"):
            if "input" not in pair:
                raise TaskFormatError(f"task {task_id!r} test[{i}]: needs an input")
            out = grid(pair["output"], f"test[{i}].output") if pair.get("output") is not None else None
            test.append((grid(pair["input"], f"test[{i}].input"), out))
        return cls(task_id, tuple(train), tuple(test))

    def to_dict(self) -> dict:
        return {
            "train": [{"input": i.to_lists(), "output": o.to_lists()} for i, o in self.train],
            "test": [
                {"input": i.to_lists(), **({"output": o.to_lists()} if o is not None else {})}
                for i, o in self.test
            ],
        }


def as_arc_task(task, task_id: Optional[str] = None) -> ArcTask:
    """``task`` itself, or the ArcTask its interchange dict describes, with
    id ``task_id``, else the dict's ``id``, else ``"task"``."""
    if isinstance(task, ArcTask):
        return task
    if not isinstance(task, dict):
        raise TaskFormatError(f"a puzzle must be an object, got {task!r}")
    return ArcTask.from_dict(task, task_id or task.get("id", "task"))


@dataclass(frozen=True)
class LoadError:
    task_id: str
    reason: str


def load_tasks_with_errors(path: str | Path) -> tuple[list[ArcTask], list[LoadError]]:
    """Load a task file or a directory of task files.

    Returns the valid tasks and a report entry per invalid file.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == ".json")
    elif path.exists():
        files = [path]
    else:
        raise FileNotFoundError(path)
    tasks, errors = [], []
    for file in files:
        task_id = file.stem
        try:
            with open(file) as fh:
                data = json.load(fh)
            tasks.append(ArcTask.from_dict(data, task_id))
        except (TaskFormatError, json.JSONDecodeError, OSError) as exc:
            errors.append(LoadError(task_id, str(exc)))
    return tasks, errors


def load_tasks(path: str | Path) -> list[ArcTask]:
    tasks, errors = load_tasks_with_errors(path)
    for err in errors:
        log.warning("skipping task %s: %s", err.task_id, err.reason)
    return tasks
