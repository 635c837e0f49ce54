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
from functools import partial
from pathlib import Path
from typing import Optional

from ..errors import ConfigurationError, GridBoundsError, json_object, list_of
from ..grids import Grid

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ArcTask:
    id: str
    train: tuple[tuple[Grid, Grid], ...]
    test: tuple[tuple[Grid, Optional[Grid]], ...]

    def __post_init__(self):
        if not self.train:
            raise ConfigurationError(f"task {self.id!r} has no training pairs")

    @classmethod
    def from_dict(cls, data: dict, task_id: str) -> "ArcTask":
        def grid(node, what):
            try:
                return Grid.from_rows(list_of(node, what, list_of))
            except GridBoundsError as exc:
                raise ConfigurationError(f"{what}: {exc}") from exc

        def pair(entry, what, test=False):  # a test pair's output may be absent
            output = json_object(entry, what, required=("input",) if test else ("input", "output")).get("output")
            return (grid(entry["input"], f"{what}.input"),
                    None if output is None and test else grid(output, f"{what}.output"))

        where = f"task {task_id!r}"
        json_object(data, where, required=("train",))
        return cls(task_id, list_of(data["train"], f"{where} train", pair),
                   list_of(data.get("test", []), f"{where} test", partial(pair, test=True)))

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
        raise ConfigurationError(f"a puzzle must be an object, got {task!r}")
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
        except (ConfigurationError, json.JSONDecodeError, OSError) as exc:
            errors.append(LoadError(task_id, str(exc)))
    return tasks, errors


def load_tasks(path: str | Path) -> list[ArcTask]:
    tasks, errors = load_tasks_with_errors(path)
    for err in errors:
        log.warning("skipping task %s: %s", err.task_id, err.reason)
    return tasks
