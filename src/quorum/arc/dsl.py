"""Closed grid-transformation language: parser, printer, interpreter.

A program is a semicolon-separated sequence of one to 64 primitive
operations, applied left to right; op names are read case-insensitively.
The text form is canonical: ``parse_dsl(print_dsl(p)) == p`` for every
program of one to 64 operations.  ``parse_dsl`` checks every rule on the
text; a program built in code, such as a conjugate, may hold more ops.

Primitive semantics (h, w are the current grid's dimensions):

* ``rotate90`` / ``rotate180`` / ``rotate270`` -- clockwise rotation.
* ``flip_h`` -- mirror left-right (columns reversed).
* ``flip_v`` -- mirror top-bottom (rows reversed).
* ``transpose`` -- out[c][r] = in[r][c].
* ``recolor(a->b, ...)`` -- map listed colors, leave others; source
  colors must be distinct.
* ``crop(r0, c0, ch, cw)`` -- rectangle of size ch x cw with top-left
  (r0, c0); must lie inside the grid.
* ``pad(color, top, bottom, left, right)`` -- add a border.
* ``translate(dr, dc, fill)`` -- shift content by (dr, dc), vacated
  cells take ``fill``; content shifted outside is lost.
* ``tile(ry, rx)`` -- repeat the grid ry times vertically, rx times
  horizontally.
* ``overlay_nonzero(slot)`` -- paint the nonzero cells of an earlier
  intermediate grid onto the current one; slot k is the grid as it was
  before op k ran (slot 0 = program input).  Shapes must match.
* ``identity`` -- no-op.

Any result outside the 1..30 envelope raises ``GridBoundsError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import DslSyntaxError, GridBoundsError
from ..grids import MAX_SIDE, N_COLORS, Grid

MAX_OPS = 64

# op name -> number of integer args (None means special-cased)
_ARITY = {
    "rotate90": 0,
    "rotate180": 0,
    "rotate270": 0,
    "flip_h": 0,
    "flip_v": 0,
    "transpose": 0,
    "recolor": None,
    "crop": 4,
    "pad": 5,
    "translate": 3,
    "tile": 2,
    "overlay_nonzero": 1,
    "identity": 0,
}

GEOMETRY_OPS = frozenset({"rotate90", "rotate180", "rotate270", "flip_h", "flip_v", "transpose", "identity"})


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple = ()

    def print(self) -> str:
        if self.name == "recolor":
            body = ", ".join(f"{a}->{b}" for a, b in self.args)
            return f"recolor({body})"
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class DslProgram:
    ops: tuple[Op, ...]


def print_dsl(program: DslProgram) -> str:
    return "; ".join(op.print() for op in program.ops)


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*(\(([^)]*)\))?\s*\Z")


def _location(text: str, stmt_start: int) -> tuple[int, int]:
    prefix = text[:stmt_start]
    line = prefix.count("\n") + 1
    column = stmt_start - (prefix.rfind("\n") + 1) + 1
    return line, column


def parse_dsl(text: str) -> DslProgram:
    """Parse program text; errors carry the offending line and column.
    Text that is not a string or holds no operation does not parse."""
    if not isinstance(text, str):
        raise DslSyntaxError(f"program text must be a string, got {type(text).__name__}", 1, 1)
    ops = []
    pos = 0
    for raw in text.split(";"):
        stmt_start = pos + (len(raw) - len(raw.lstrip()))
        pos += len(raw) + 1
        if not raw.strip():
            continue
        line, column = _location(text, stmt_start)
        m = _TOKEN_RE.match(raw)
        if not m:
            raise DslSyntaxError(f"cannot parse statement {raw.strip()!r}", line, column)
        name, has_args, body = m.group(1).lower(), m.group(2), m.group(3) or ""
        if name not in _ARITY:
            raise DslSyntaxError(f"unknown op {m.group(1)!r}", line, column)
        arity = _ARITY[name]
        parts = [p.strip() for p in body.split(",") if p.strip()] if has_args else []
        if name == "recolor":
            if not parts:
                raise DslSyntaxError("recolor needs at least one a->b mapping", line, column)
            pairs = []
            for part in parts:
                pm = re.fullmatch(r"(\d+)\s*->\s*(\d+)", part)
                if not pm:
                    raise DslSyntaxError(f"bad recolor mapping {part!r}", line, column)
                a, b = int(pm.group(1)), int(pm.group(2))
                if not (0 <= a < N_COLORS and 0 <= b < N_COLORS):
                    raise DslSyntaxError(f"recolor colors must be 0..{N_COLORS - 1}: {part!r}", line, column)
                pairs.append((a, b))
            if len({a for a, _ in pairs}) != len(pairs):
                raise DslSyntaxError("recolor maps a source color twice", line, column)
            ops.append(Op("recolor", tuple(pairs)))
            continue
        if len(parts) != arity:
            raise DslSyntaxError(f"{name} takes {arity} args, got {len(parts)}", line, column)
        args = []
        for part in parts:
            if not re.fullmatch(r"-?\d+", part):
                raise DslSyntaxError(f"bad integer literal {part!r}", line, column)
            args.append(int(part))
        _check_static(name, args, line, column)
        ops.append(Op(name, tuple(args)))
    if not ops:
        raise DslSyntaxError("a program needs at least one operation", 1, 1)
    if len(ops) > MAX_OPS:
        raise DslSyntaxError(f"program has {len(ops)} ops, limit is {MAX_OPS}", 1, 1)
    return DslProgram(tuple(ops))


def _check_static(name: str, args: list[int], line: int, column: int):
    def bad(msg):
        raise DslSyntaxError(f"{name}: {msg}", line, column)

    if name == "crop":
        if args[0] < 0 or args[1] < 0 or args[2] < 1 or args[3] < 1:
            bad("origin must be >= 0 and size >= 1")
    elif name == "pad":
        if not 0 <= args[0] < N_COLORS:
            bad(f"color must be 0..{N_COLORS - 1}")
        if any(a < 0 for a in args[1:]):
            bad("margins must be >= 0")
    elif name == "translate":
        if not 0 <= args[2] < N_COLORS:
            bad(f"fill must be 0..{N_COLORS - 1}")
    elif name == "tile":
        if args[0] < 1 or args[1] < 1:
            bad("repeat counts must be >= 1")
    elif name == "overlay_nonzero":
        if args[0] < 0:
            bad("slot must be >= 0")


# -- interpreter -----------------------------------------------------------


def _apply(op: Op, grid: Grid, history: list[Grid]) -> Grid:
    cells = grid.cells
    h, w = grid.height, grid.width
    name = op.name
    if name == "identity":
        return grid
    if name == "rotate90":
        return Grid(tuple(zip(*reversed(cells))))
    if name == "rotate180":
        return Grid(tuple(row[::-1] for row in reversed(cells)))
    if name == "rotate270":
        return Grid(tuple(zip(*cells))[::-1])
    if name == "flip_h":
        return Grid(tuple(row[::-1] for row in cells))
    if name == "flip_v":
        return Grid(cells[::-1])
    if name == "transpose":
        return Grid(tuple(zip(*cells)))
    if name == "recolor":
        mapping = dict(op.args)
        return Grid(tuple(tuple(map(mapping.get, row, row)) for row in cells))
    if name == "crop":
        r0, c0, ch, cw = op.args
        if r0 + ch > h or c0 + cw > w:
            raise GridBoundsError(f"crop({r0},{c0},{ch},{cw}) leaves the {h}x{w} grid")
        return Grid(tuple(tuple(row[c0:c0 + cw]) for row in cells[r0:r0 + ch]))
    if name == "pad":
        color, top, bottom, left, right = op.args
        nw = w + left + right
        blank = (color,) * nw
        middle = tuple((color,) * left + row + (color,) * right for row in cells)
        return Grid((blank,) * top + middle + (blank,) * bottom)
    if name == "translate":
        dr, dc, fill = op.args
        cut = min(abs(dc), w)  # columns shifted out of each row
        edge = (fill,) * cut
        rows = tuple(edge + row[:w - cut] if dc >= 0 else row[cut:] + edge for row in cells)
        cut = min(abs(dr), h)
        blank = ((fill,) * w,) * cut
        return Grid(blank + rows[:h - cut] if dr >= 0 else rows[cut:] + blank)
    if name == "tile":
        ry, rx = op.args
        if h * ry > MAX_SIDE or w * rx > MAX_SIDE:
            raise GridBoundsError(f"tile({ry},{rx}) would exceed {MAX_SIDE}x{MAX_SIDE}")
        return Grid(tuple(tuple(row) * rx for _ in range(ry) for row in cells))
    if name == "overlay_nonzero":
        slot = op.args[0]
        if slot >= len(history):
            raise GridBoundsError(f"overlay_nonzero slot {slot} does not exist yet")
        other = history[slot]
        if (other.height, other.width) != (h, w):
            raise GridBoundsError(
                f"overlay shapes differ: {other.height}x{other.width} onto {h}x{w}"
            )
        return Grid(
            tuple(
                tuple(o if o != 0 else v for o, v in zip(orow, row))
                for orow, row in zip(other.cells, cells)
            )
        )
    raise GridBoundsError(f"unhandled op {name!r}")  # unreachable given the parser


def eval_dsl(program: DslProgram, grid: Grid) -> Grid:
    """Run the program; composition is left to right."""
    history = [grid]
    current = grid
    for op in program.ops:
        current = _apply(op, current, history)
        history.append(current)
    return current
