"""Answer values and their normalization.

Solvers emit free text; comparing answers across methods and models
requires one canonical form per answer kind:

* ``choice``  -- a single uppercase letter A..Z,
* ``text``    -- trimmed, internal whitespace collapsed, case-folded,
* ``integer`` -- the first signed decimal literal found in the text,
* ``grid``    -- a :class:`~quorum.grids.Grid`.

Normalization is deterministic and idempotent.  ``normalize_answer`` is
the one constructor of :class:`AnswerValue` and the one place these rules
are checked: solver output and stored records are both read through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from ..grids import Grid
from ..errors import GridBoundsError, MalformedAnswerError

ANSWER_KINDS = ("choice", "text", "integer", "grid")

_CHOICE_RE = re.compile(r"[^0-9A-Za-z]*([A-Za-z])[^0-9A-Za-z]*\Z")
_INT_RE = re.compile(r"[+-]?\d+")
_WS_RE = re.compile(r"\s+")

Payload = Union[str, int, Grid]


@dataclass(frozen=True)
class AnswerValue:
    """A normalized answer; only ``normalize_answer`` builds one."""

    kind: str
    payload: Payload

    def canonical_text(self) -> str:
        """Stable textual form; also the lexicographic tie-break key."""
        if self.kind == "grid":
            return self.payload.to_text()
        return str(self.payload)

    def sort_key(self) -> tuple[str, str]:
        return (self.kind, self.canonical_text())


def normalize_answer(raw: Union[str, int, Grid, list], kind: str) -> AnswerValue:
    """Normalize a raw answer to its canonical :class:`AnswerValue`.

    Raises :class:`MalformedAnswerError` when the raw value cannot be
    interpreted as the requested kind.
    """
    if kind not in ANSWER_KINDS:
        raise MalformedAnswerError(f"unknown answer kind {kind!r}")

    if kind == "grid":
        try:
            if isinstance(raw, Grid):
                return AnswerValue("grid", raw)
            if isinstance(raw, str):
                return AnswerValue("grid", Grid.from_text(raw))
            if isinstance(raw, (list, tuple)):
                return AnswerValue("grid", Grid.from_rows(raw))
        except (GridBoundsError, TypeError) as exc:  # TypeError: a row that is not a list
            raise MalformedAnswerError(f"bad grid answer: {exc}") from exc
        raise MalformedAnswerError(f"cannot interpret {type(raw).__name__} as a grid")

    if isinstance(raw, Grid):
        raise MalformedAnswerError(f"grid payload given for kind {kind!r}")
    if isinstance(raw, int) and not isinstance(raw, bool):
        raw = str(raw)
    if not isinstance(raw, str):
        raise MalformedAnswerError(f"cannot interpret {type(raw).__name__} as {kind}")
    if not raw.strip():
        raise MalformedAnswerError("empty answer text")

    if kind == "choice":
        m = _CHOICE_RE.fullmatch(raw.strip())
        if not m:
            raise MalformedAnswerError(f"no single choice letter in {raw!r}")
        return AnswerValue("choice", m.group(1).upper())

    if kind == "integer":
        m = _INT_RE.search(raw)
        if not m:
            raise MalformedAnswerError(f"no integer literal in {raw!r}")
        return AnswerValue("integer", int(m.group(0)))

    return AnswerValue("text", _WS_RE.sub(" ", raw.strip()).casefold())
