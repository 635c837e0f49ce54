"""Candidate-program execution and the exact train-pair verifier.

A candidate is either a DSL program or an external command speaking the
grid wire protocol (digit rows on stdin, digit rows on stdout, blank
line terminated).  Verification is exact: the program must reproduce
every training output cell for cell; crashes, timeouts, and protocol
violations become error verdicts, never harness crashes.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass
from typing import Union

from ..core.model import Check, Verdict
from ..errors import DslSyntaxError, GridBoundsError, QuorumError
from ..grids import Grid
from . import dsl
from .dsl import DslProgram, eval_dsl
from .task import ArcTask


@dataclass(frozen=True)
class ExternalProgram:
    """Child process transforming one grid per invocation."""

    command: tuple[str, ...]
    timeout_ms: int = 10_000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if not self.command:
            raise ValueError("empty command line")


class ProgramRunError(QuorumError):
    pass


Program = Union[DslProgram, ExternalProgram]


def run_program(program: Program, grid: Grid, timeout_s: float = 10.0) -> Grid:
    """Apply a candidate program to one grid; raises ProgramRunError."""
    if isinstance(program, DslProgram):
        try:
            return eval_dsl(program, grid)
        except GridBoundsError as exc:
            raise ProgramRunError(f"program left grid bounds: {exc}") from exc
    timeout = min(timeout_s, program.timeout_ms / 1000)
    try:
        proc = subprocess.run(
            program.command,
            input=grid.to_text() + "\n\n",
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ProgramRunError(f"timeout after {timeout:.3f}s") from exc
    except OSError as exc:
        raise ProgramRunError(f"cannot run {program.command[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        raise ProgramRunError(f"exit status {proc.returncode}: {proc.stderr.strip()[:200]}")
    try:
        return Grid.from_text(proc.stdout)
    except GridBoundsError as exc:
        raise ProgramRunError(f"bad output grid: {exc}") from exc


def _mismatches(got: Grid, want: Grid) -> list[tuple[int, int]]:
    if (got.height, got.width) != (want.height, want.width):
        return [(-1, -1)]  # shape mismatch sentinel
    return [
        (r, c)
        for r in range(want.height)
        for c in range(want.width)
        if got.cells[r][c] != want.cells[r][c]
    ]


def verify_program(program: Program, task: ArcTask, timeout_s: float = 10.0) -> Verdict:
    """Pass iff the program reproduces every train output exactly."""
    checks = []
    for i, (inp, want) in enumerate(task.train):
        try:
            got = run_program(program, inp, timeout_s=timeout_s)
        except ProgramRunError as exc:
            return Verdict.errored(f"train[{i}]: {exc}", checks)
        diffs = _mismatches(got, want)
        if not diffs:
            checks.append(Check(f"train[{i}]", True, "exact match"))
        elif diffs == [(-1, -1)]:
            checks.append(Check(
                f"train[{i}]", False,
                f"shape {got.height}x{got.width} != {want.height}x{want.width}",
            ))
        else:
            shown = ", ".join(f"({r},{c})" for r, c in diffs[:8])
            more = "" if len(diffs) <= 8 else f" and {len(diffs) - 8} more"
            checks.append(Check(f"train[{i}]", False, f"{len(diffs)} differing cells: {shown}{more}"))
    if all(c.passed for c in checks):
        return Verdict.passed(checks)
    return Verdict.failed(checks)


def check_program_text(text: str, task: ArcTask, timeout_s: float = 10.0) -> Verdict:
    """``verify_program`` on the DSL program ``text`` spells; text that
    does not parse is a malformed-output error verdict."""
    try:
        program = dsl.parse_dsl(text)  # looked up when called, like verify_program
    except DslSyntaxError as exc:
        return Verdict.errored(f"malformed output: {exc}")
    return verify_program(program, task, timeout_s=timeout_s)


def predict(program: Program, task: ArcTask, timeout_s: float = 10.0, unsafe: bool = False) -> list[Grid]:
    """Apply a verified program to every test input.

    Verification against the train pairs is enforced first unless
    ``unsafe`` is set; failures raise ProgramRunError.
    """
    if not unsafe:
        verdict = verify_program(program, task, timeout_s=timeout_s)
        if not verdict.is_pass:
            raise ProgramRunError(f"program does not pass training pairs ({verdict.status})")
    deadline = time.monotonic() + timeout_s * max(1, len(task.test))
    outputs = []
    for inp, _ in task.test:
        if time.monotonic() > deadline:
            raise ProgramRunError("prediction budget exhausted")
        outputs.append(run_program(program, inp, timeout_s=timeout_s))
    return outputs
