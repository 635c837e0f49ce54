"""Plain-text result tables and their parser.

Cells show a solved/unsolved mark plus the elapsed time in bracketed
seconds, e.g. ``✓ (8)``; rendering is deterministic and
``parse_matrix(render_matrix(m)) == m``.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from .matrix import ResultMatrix

DEFAULT_MARKS = ("✓", "✗")
_SEP = " | "


def _format_seconds(ms: float) -> str:
    text = f"{ms / 1000:.3f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _cell(solved: bool, ms: Optional[float], marks: tuple[str, str]) -> str:
    mark = marks[0] if solved else marks[1]
    if ms is None:
        return mark
    return f"{mark} ({_format_seconds(ms)})"


def table_name(name: str, what: str) -> str:
    """``name``, if a table can hold it as a task or solver id, else a
    ConfigurationError naming ``what``.  A table can hold exactly the
    names with no ``|``, no line break and no leading or trailing
    whitespace: those for which ``parse_matrix(render_matrix(m)) == m``."""
    if "|" in name or name != name.strip() or len(name.splitlines()) > 1:
        raise ConfigurationError(f"{what} {name!r} may not contain '|' or a line break, "
                                 "nor start or end with whitespace")
    return name


def render_matrix(matrix: ResultMatrix, marks: tuple[str, str] = DEFAULT_MARKS) -> str:
    """Render as an aligned table: one row per task, one column per solver."""
    if marks[0] == marks[1]:
        raise ValueError("solved and unsolved marks must differ")
    for name in (*matrix.task_ids, *matrix.solver_ids, *marks):
        table_name(name, "a table entry")
    header = ["task", *matrix.solver_ids]
    rows = [header]
    for i, task_id in enumerate(matrix.task_ids):
        row = [task_id]
        for k in range(matrix.n_solvers):
            ms = None if matrix.elapsed_ms is None else matrix.elapsed_ms[i][k]
            row.append(_cell(matrix.solved[i][k], ms, marks))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = []
    for r, row in enumerate(rows):
        lines.append(_SEP.join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, marks: tuple[str, str] = DEFAULT_MARKS) -> ResultMatrix:
    """Inverse of :func:`render_matrix`; raises ValueError on bad cells."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("table needs a header, a rule, and at least one row")
    header = [h.strip() for h in lines[0].split("|")]
    if header[0] != "task":
        raise ValueError(f"expected 'task' header, got {header[0]!r}")
    solver_ids = header[1:]
    task_ids, solved, elapsed = [], [], []
    any_elapsed = False
    for ln in lines[2:]:
        parts = [p.strip() for p in ln.split("|")]
        if len(parts) != len(header):
            raise ValueError(f"row has {len(parts)} cells, expected {len(header)}: {ln!r}")
        task_ids.append(parts[0])
        row_solved, row_elapsed = [], []
        for cell in parts[1:]:
            mark, _, rest = cell.partition(" ")
            if mark == marks[0]:
                row_solved.append(True)
            elif mark == marks[1]:
                row_solved.append(False)
            else:
                raise ValueError(f"unknown mark in cell {cell!r}")
            rest = rest.strip()
            if rest:
                if not (rest.startswith("(") and rest.endswith(")")):
                    raise ValueError(f"bad elapsed annotation in cell {cell!r}")
                row_elapsed.append(int(round(float(rest[1:-1]) * 1000)))
                any_elapsed = True
            else:
                row_elapsed.append(None)
        solved.append(row_solved)
        elapsed.append(row_elapsed)
    return ResultMatrix(
        task_ids,
        solver_ids,
        solved,
        elapsed if any_elapsed else None,
    )
