"""Plain-text result tables, for people to read.

Cells show a solved/unsolved mark plus the elapsed time in bracketed
seconds, e.g. ``✓ (8)``; rendering is deterministic.  A run directory
keeps this table as ``matrix.txt`` beside ``matrix.json``, and
``matrix.json`` (:meth:`ResultMatrix.from_json`) is what programs read
back.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from .matrix import ResultMatrix

_SEP = " | "


def _format_seconds(ms: float) -> str:
    text = f"{ms / 1000:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _cell(solved: bool, ms: Optional[float]) -> str:
    mark = "✓" if solved else "✗"
    if ms is None:
        return mark
    return f"{mark} ({_format_seconds(ms)})"


def table_name(name: str, what: str) -> str:
    """``name``, if a table can hold it as a task or solver id, else a
    ConfigurationError naming ``what``.  A table can hold exactly the
    names with no ``|``, no line break and no leading or trailing
    whitespace, so that every row and column of the table reads
    unambiguously: splitting a line on ``|`` and stripping each part
    gives back its ids."""
    if "|" in name or name != name.strip() or len(name.splitlines()) > 1:
        raise ConfigurationError(f"{what} {name!r} may not contain '|' or a line break, "
                                 "nor start or end with whitespace")
    return name


def render_matrix(matrix: ResultMatrix) -> str:
    """Render as an aligned table: one row per task, one column per solver."""
    for name in (*matrix.task_ids, *matrix.solver_ids):
        table_name(name, "a table entry")
    header = ["task", *matrix.solver_ids]
    rows = [header]
    for i, task_id in enumerate(matrix.task_ids):
        row = [task_id]
        for k in range(matrix.n_solvers):
            ms = None if matrix.elapsed_ms is None else matrix.elapsed_ms[i][k]
            row.append(_cell(matrix.solved[i][k], ms))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r, row in enumerate(rows):
        lines.append(_SEP.join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
