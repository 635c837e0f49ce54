"""Puzzle model and loading from the public interchange format.

A task file is a JSON object with ``train`` and ``test`` arrays of
``{"input": [[int]], "output": [[int]]}`` pairs; test outputs may be
absent.  One file holds one task, whose id is the file's stem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from ..errors import ConfigurationError, GridBoundsError, json_object, list_of, read_json
from ..grids import Grid


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
            try:  # rows that are all lists need no per-row list_of
                return Grid.from_rows(node if type(node) is list and set(map(type, node)) == {list}
                                      else list_of(node, what, list_of))
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

    @classmethod
    def load(cls, path: str | Path) -> "ArcTask":
        return cls.from_dict(read_json(path, "the puzzle"), Path(path).stem)

    def to_dict(self) -> dict:
        return {
            "train": [{"input": i.to_lists(), "output": o.to_lists()} for i, o in self.train],
            "test": [
                {"input": i.to_lists(), **({"output": o.to_lists()} if o is not None else {})}
                for i, o in self.test
            ],
        }


def as_arc_task(task, task_id: Optional[str] = None) -> ArcTask:
    """``task`` itself, the puzzle that a ``Task``'s ``arc_program`` check
    parsed when the task was built, or the ArcTask its interchange dict
    describes, with id ``task_id``, else the dict's ``id``, else ``"task"``.

    The check is the one holder of a task's parsed puzzle: it is built once
    per task, immutable and shared by threads, so reading the puzzle back
    from it parses nothing and keeps no second copy in step."""
    if isinstance(task, ArcTask):
        return task
    verifier = getattr(task, "verifier", None)  # a Task has one; a dict has none
    if verifier is not None and verifier.kind == "arc_program":
        # partial(_once_per_answer, partial(_check_program, puzzle), memo),
        # as ``Task.__post_init__`` and ``core.verify`` build it
        return task.check.args[0].args[0]
    if not isinstance(task, dict):
        raise ConfigurationError(f"a puzzle must be an object, got {task!r}")
    return ArcTask.from_dict(task, task_id or task.get("id", "task"))
