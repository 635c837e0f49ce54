"""Deterministic prompt serialization of puzzles.

Grids render as rows of digits; training pairs come first as labeled
blocks, then the test input(s).  Output is bit-stable across runs.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .task import ArcTask

STYLES = ("labeled", "compact")


def format_prompt(task: ArcTask, style: str = "labeled") -> str:
    if style not in STYLES:
        raise ConfigurationError(f"unknown style {style!r}; expected one of {STYLES}")
    blocks = []
    for i, (inp, out) in enumerate(task.train, 1):
        if style == "labeled":
            blocks.append(f"train {i} input:\n{inp.to_text()}\ntrain {i} output:\n{out.to_text()}")
        else:
            blocks.append(f"{inp.to_text()}\n=\n{out.to_text()}")
    for i, (inp, _) in enumerate(task.test, 1):
        if style == "labeled":
            blocks.append(f"test {i} input:\n{inp.to_text()}")
        else:
            blocks.append(f"{inp.to_text()}\n?")
    return "\n\n".join(blocks) + "\n"
