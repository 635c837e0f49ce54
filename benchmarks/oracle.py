"""The benchmark's own answers, computed without ``quorum``.

* answer normalization, written from the documented rules (choice letter,
  collapsed case-folded text, first signed integer literal);
* the grid language's operations as numpy array transforms;
* the exact games' values from their closed forms.
"""

from __future__ import annotations

import math
import re

import numpy as np

_CHOICE_RE = re.compile(r"[^0-9A-Za-z]*([A-Za-z])[^0-9A-Za-z]*")
_INT_RE = re.compile(r"[+-]?\d+")
_WS_RE = re.compile(r"\s+")


def normalize(raw: str, kind: str):
    """Canonical text of an answer, or None when it has no valid form."""
    if not raw.strip():
        return None
    if kind == "choice":
        m = _CHOICE_RE.fullmatch(raw.strip())
        return m.group(1).upper() if m else None
    if kind == "integer":
        m = _INT_RE.search(raw)
        return str(int(m.group(0))) if m else None
    return _WS_RE.sub(" ", raw.strip()).casefold()


# -- grid programs -------------------------------------------------------------

_GEOMETRY = {
    "identity": lambda g: g,
    "rotate90": lambda g: np.rot90(g, -1),
    "rotate180": lambda g: np.rot90(g, 2),
    "rotate270": lambda g: np.rot90(g, 1),
    "flip_h": np.fliplr,
    "flip_v": np.flipud,
    "transpose": lambda g: g.T,
}
_STMT_RE = re.compile(r"([a-z_0-9]+)\s*(?:\((.*)\))?")


def parse(text: str):
    """Parse the subset of the grid language the workloads emit.

    Returns a list of (name, args) or None for text that is not a program.
    """
    ops = []
    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        m = _STMT_RE.fullmatch(stmt)
        if not m:
            return None
        name, body = m.group(1), m.group(2)
        if name in _GEOMETRY and body is None:
            ops.append((name, ()))
        elif name == "recolor" and body:
            pairs = [re.fullmatch(r"\s*(\d)\s*->\s*(\d)\s*", part) for part in body.split(",")]
            if not all(pairs):
                return None
            ops.append((name, tuple((int(p.group(1)), int(p.group(2))) for p in pairs)))
        elif name == "translate" and body:
            args = [part.strip() for part in body.split(",")]
            if len(args) != 3 or not all(re.fullmatch(r"-?\d+", a) for a in args):
                return None
            ops.append((name, tuple(int(a) for a in args)))
        else:
            return None
    return ops


def apply(ops, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid)
    for name, args in ops:
        if name in _GEOMETRY:
            grid = _GEOMETRY[name](grid)
        elif name == "recolor":
            lut = np.arange(10)
            for a, b in args:
                lut[a] = b
            grid = lut[grid]
        else:  # translate(dr, dc, fill): content shifts, vacated cells take fill
            dr, dc, fill = args
            h, w = grid.shape
            out = np.full_like(grid, fill)
            if abs(dr) < h and abs(dc) < w:
                out[max(dr, 0):h + min(dr, 0), max(dc, 0):w + min(dc, 0)] = \
                    grid[max(-dr, 0):h - max(dr, 0), max(-dc, 0):w - max(dc, 0)]
            grid = out
    return grid


def solves(ops, pairs) -> bool:
    """True when the program maps every input of ``pairs`` to its output."""
    if ops is None:
        return False
    for x, y in pairs:
        got, want = apply(ops, np.asarray(x)), np.asarray(y)
        if got.shape != want.shape or not np.array_equal(got, want):
            return False
    return True


def program_passes(text: str, puzzle: dict) -> bool:
    return solves(parse(text), [(p["input"], p["output"]) for p in puzzle["train"]])


def dihedral_images(grid) -> list[np.ndarray]:
    """The eight images of a grid: four rotations, then the same after a
    left-right flip, in the order r0, r90, r180, r270, fr0, ..., fr270."""
    grid = np.asarray(grid)
    out = []
    for flipped in (grid, np.fliplr(grid)):
        for k in range(4):
            out.append(np.rot90(flipped, -k))
    return out


# -- exact games ---------------------------------------------------------------

_SEQUENCE = {2: 3, 3: 3, 4: 7}


def game_value(params: dict) -> str:
    """Canonical text of the exact answer: ninja 1 + floor(log2 n),
    sequence bound 2/3/4 -> 3/3/7, turbo(4, 3) = 3, coinflip solvable iff
    m * n is divisible by 3."""
    game = params["game"]
    if game == "ninja":
        return str(1 + int(math.floor(math.log2(params["n"]))))
    if game == "sequence":
        return str(_SEQUENCE[params["bound"]])
    if game == "turbo":
        if (params["rows"], params["cols"]) != (4, 3):
            raise ValueError("only the 4x3 turbo board has a closed form here")
        return "3"
    if game == "coinflip":
        return "true" if params["m"] * params["n"] % 3 == 0 else "false"
    raise ValueError(f"no closed form for {game!r}")
