"""Immutable colored grid, the unit every puzzle operation acts on.

Cells are color indices 0..9 stored row-major; dimensions are capped at
30x30. Grids hash and compare by value so they can key caches and sit
inside answer payloads.  Outside grids enter through ``from_rows`` and
``from_text``, which check rows and colors; ``Grid(cells)`` checks only
the size, since the DSL builds its grids from checked ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import GridBoundsError

MAX_SIDE = 30
N_COLORS = 10
_COLORS = bytes(range(N_COLORS))
# bytes.translate table: color v -> ASCII digit v; any other byte -> 0xFF,
# which no ASCII decode accepts
_DIGITS = b"0123456789".ljust(256, b"\xff")
# bytes.translate table: ASCII digit -> its color
_CELLS = bytes.maketrans(b"0123456789", _COLORS)


@dataclass(frozen=True)
class Grid:
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.cells or not self.cells[0]:
            raise GridBoundsError("grid must have at least one row and one column")
        h, w = len(self.cells), len(self.cells[0])
        if h > MAX_SIDE or w > MAX_SIDE:
            raise GridBoundsError(f"grid {h}x{w} exceeds {MAX_SIDE}x{MAX_SIDE}")

    @property
    def height(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return len(self.cells[0])

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Grid":
        """A ragged row or a cell that is not an int 0..9 raises GridBoundsError."""
        grid = cls(tuple(map(tuple, rows)))
        # The common case in bulk: one width, every cell of type int exactly
        # (a bool or a numpy integer is not), every value 0..9.
        types = [*map(type, chain.from_iterable(grid.cells))]
        if len(set(map(len, grid.cells))) == 1 and types.count(int) == len(types) and _colors_only(grid.cells):
            return grid
        # Else the cell-by-cell check names the first mistake, and accepts
        # what the bulk check cannot tell is an int (an IntEnum member).
        for r, row in enumerate(grid.cells):
            if len(row) != grid.width:
                raise GridBoundsError(f"ragged row {r}: expected width {grid.width}, got {len(row)}")
            for c, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < N_COLORS:
                    raise GridBoundsError(f"cell ({r},{c}) color {v!r} outside 0..{N_COLORS - 1}")
        return grid

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        """Parse ASCII digit rows, one line per row (the wire format)."""
        lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not lines:
            raise GridBoundsError("empty grid text")
        rows = []
        for ln in lines:
            if not (ln.isascii() and ln.isdigit()):  # isdigit alone takes "²"
                raise GridBoundsError(f"non-digit character in grid row {ln!r}")
            rows.append(ln.encode().translate(_CELLS))
        return cls.from_rows(rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.cells]

    def to_text(self) -> str:
        try:
            return b"\n".join([bytes(row).translate(_DIGITS) for row in self.cells]).decode("ascii")
        except (TypeError, ValueError):  # a cell outside 0..9, which only a grid built in code holds
            return "\n".join("".join(str(v) for v in row) for row in self.cells)

    def __str__(self) -> str:
        return self.to_text()


def _colors_only(cells: tuple[tuple[int, ...], ...]) -> bool:
    """Every int cell is 0..9."""
    try:
        return not b"".join(map(bytes, cells)).translate(None, _COLORS)
    except ValueError:  # a cell below 0 or above 255
        return False
