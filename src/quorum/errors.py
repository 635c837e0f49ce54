"""Exception hierarchy shared across the package, the one reader of every
outside JSON document and the writer of the JSON files quorum leaves for
programs, and the shape vocabulary of every loader: each helper returns
its value (a list as a tuple), else raises a ConfigurationError naming
``what``."""

import json
import math


class QuorumError(Exception):
    """Base class for all package errors."""


class MalformedAnswerError(QuorumError):
    """Raw answer text cannot be normalized to the requested kind."""


class ConfigurationError(QuorumError):
    """Invalid solver/method/run configuration."""


def parse_json(text, what: str):
    """The document ``text`` (a str, or bytes in UTF-8, -16 or -32) holds."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON or not UTF-8, an int too long to convert, too deep
        raise ConfigurationError(f"{what} cannot be read as JSON: {exc}") from exc


def read_json(path, what: str):
    """The document in the file at ``path``; a path that cannot be read
    raises OSError."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), f"{what} {path}")


def write_json(path, value) -> None:
    """Write ``value`` to ``path`` as ``json.dumps(value, sort_keys=True)`` and
    a newline: one line, encoded by the C encoder, which pretty-printing
    (``indent``) would bypass."""
    with open(path, "w") as fh:
        fh.write(json.dumps(value, sort_keys=True))
        fh.write("\n")


def json_object(value, what: str, required=(), keys=None) -> dict:
    """A JSON object (a dict) holding every ``required`` key and, when
    ``keys`` is given, no key outside ``required`` and ``keys``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {value!r}")
    for key in required:
        if key not in value:
            raise ConfigurationError(f"{what} needs a {key!r} entry")
    unknown = [] if keys is None else sorted(set(value) - set(required) - set(keys))
    if unknown:
        raise ConfigurationError(f"{what} takes no {unknown[0]!r} entry")
    return value


def string(value, what: str, nonempty: bool = False) -> str:
    if not isinstance(value, str) or (nonempty and not value):
        raise ConfigurationError(f"{what} must be a {'non-empty ' if nonempty else ''}string, got {value!r}")
    return value


def integer(value, what: str, floor=None) -> int:
    """An int, never a bool, and at least ``floor`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int) or (floor is not None and value < floor):
        raise ConfigurationError(f"{what} must be an integer{'' if floor is None else f' >= {floor}'}, got {value!r}")
    return value


def number(value, what: str, positive: bool = False) -> float:
    """A finite number >= 0, or > 0 when ``positive`` (an int or a float,
    never a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf
            or (positive and not value)):
        raise ConfigurationError(f"{what} must be a finite number {'> 0' if positive else '>= 0'}, got {value!r}")
    return value


def list_of(value, what: str, entry=None, size=None) -> tuple:
    """A list or a tuple, of ``size`` entries when one is given, each
    passed through ``entry(item, what)`` when one is given."""
    if not isinstance(value, (list, tuple)) or (size is not None and len(value) != size):
        raise ConfigurationError(f"{what} must be a list{'' if size is None else f' of {size}'}, got {value!r}")
    return tuple(value) if entry is None else tuple([entry(item, f"{what}[{i}]") for i, item in enumerate(value)])


class GridBoundsError(QuorumError):
    """A grid operation left the legal 1..30 / color 0..9 envelope."""


class DslSyntaxError(QuorumError):
    """Program text does not parse; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class RecordParseError(QuorumError):
    """A persisted run record is corrupt; carries the byte offset."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class IntractableError(QuorumError):
    """Requested game size exceeds the exact solver's stated bound."""
