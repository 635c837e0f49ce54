"""Candidate-program execution and the exact train-pair verifier.

A candidate is either a DSL program or an external command speaking the
grid wire protocol (digit rows on stdin, digit rows on stdout, blank
line terminated).  Verification is exact: the program must reproduce
every training output cell for cell; crashes, timeouts, and protocol
violations become error verdicts, never harness crashes.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from itertools import compress, islice
from operator import ne
from typing import Optional, Union

from ..core.model import Check, Verdict
from ..errors import ConfigurationError, DslSyntaxError, GridBoundsError, QuorumError
from ..grids import Grid
from . import dsl
from .dsl import DslProgram, eval_dsl
from .task import ArcTask


@dataclass(frozen=True)
class ExternalProgram:
    """Child process transforming one grid per invocation, killed after
    ``timeout_ms``: the only time bound on verifying or predicting with it."""

    command: tuple[str, ...]
    timeout_ms: int = 10_000

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be > 0")
        if not self.command:
            raise ConfigurationError("empty command line")


class ProgramRunError(QuorumError):
    pass


Program = Union[DslProgram, ExternalProgram]


def run_program(program: Program, grid: Grid) -> Grid:
    """Apply a candidate program to one grid; raises ProgramRunError."""
    if isinstance(program, DslProgram):
        try:
            return eval_dsl(program, grid)
        except GridBoundsError as exc:
            raise ProgramRunError(f"program left grid bounds: {exc}") from exc
    timeout = program.timeout_ms / 1000
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


def _mismatch_detail(got: Grid, want: Grid) -> Optional[str]:
    """Why ``got`` is not ``want``: their shapes, or how many cells differ
    and the first eight of them in row-major order; None when equal."""
    if (got.height, got.width) != (want.height, want.width):
        return f"shape {got.height}x{got.width} != {want.height}x{want.width}"
    count, first = 0, []
    # whole rows first: only a row that differs is counted cell by cell
    for r, (got_row, want_row) in enumerate(zip(got.cells, want.cells)):
        if got_row != want_row:
            count += sum(map(ne, got_row, want_row))
            if len(first) < 8:
                columns = compress(range(want.width), map(ne, got_row, want_row))
                first += [(r, c) for c in islice(columns, 8 - len(first))]
    if not count:
        return None
    shown = ", ".join(f"({r},{c})" for r, c in first)
    more = "" if count <= 8 else f" and {count - 8} more"
    return f"{count} differing cells: {shown}{more}"


def verify_program(program: Program, task: ArcTask) -> Verdict:
    """Pass iff the program reproduces every train output exactly."""
    checks = []
    for i, (inp, want) in enumerate(task.train):
        try:
            got = run_program(program, inp)
        except ProgramRunError as exc:
            return Verdict.errored(f"train[{i}]: {exc}", checks)
        detail = _mismatch_detail(got, want)
        checks.append(Check(f"train[{i}]", detail is None, detail or "exact match"))
    if all(c.passed for c in checks):
        return Verdict.passed(checks)
    return Verdict.failed(checks)


def check_program_text(text: str, task: ArcTask) -> Verdict:
    """``verify_program`` on the DSL program ``text`` spells; text that
    does not parse (a blank one, or one with no operation) is a
    malformed-output error verdict."""
    try:
        program = dsl.parse_dsl(text)  # looked up when called
    except DslSyntaxError as exc:
        return Verdict.errored(f"malformed output: {exc}")
    return verify_program(program, task)


def predict(program: Program, task: ArcTask, unsafe: bool = False) -> list[Grid]:
    """Apply a verified program to every test input.

    Verification against the train pairs is enforced first unless
    ``unsafe`` is set; failures raise ProgramRunError.
    """
    if not unsafe:
        verdict = verify_program(program, task)
        if not verdict.is_pass:
            raise ProgramRunError(f"program does not pass training pairs ({verdict.status})")
    return [run_program(program, inp) for inp, _ in task.test]
