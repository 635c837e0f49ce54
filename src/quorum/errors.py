"""Exception hierarchy shared across the package."""


class QuorumError(Exception):
    """Base class for all package errors."""


class MalformedAnswerError(QuorumError):
    """Raw answer text cannot be normalized to the requested kind."""


class ConfigurationError(QuorumError):
    """Invalid solver/method/run configuration."""


def json_object(value, what: str) -> dict:
    """``value`` if it is a JSON object (a dict), else a ConfigurationError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {value!r}")
    return value


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
