"""Exception hierarchy and diagnostics shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class PercemonError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(PercemonError):
    """An internal invariant was broken. Indicates a bug, not bad input."""


class ConfigError(PercemonError):
    """A monitor or CLI configuration cannot be honored."""


# --- ingestion errors -------------------------------------------------------

class IngestError(PercemonError):
    """A frame record or stream is malformed."""

    line: int | None = None  # 1-based input line, set by ``trace.read_stream``

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.line is None else f"line {self.line}: {message}"


class MalformedJson(IngestError):
    pass


class MissingField(IngestError):
    def __init__(self, name: str):
        super().__init__(f"missing required field {name!r}")
        self.name = name


class InvalidField(IngestError):
    def __init__(self, name: str, reason: str):
        super().__init__(f"invalid field {name!r}: {reason}")
        self.name = name
        self.reason = reason


class DuplicateObjectId(IngestError):
    def __init__(self, object_id: int):
        super().__init__(f"duplicate object id {object_id}")
        self.object_id = object_id


class ConfidenceOutOfRange(IngestError):
    def __init__(self, value: float):
        super().__init__(f"confidence {value} is outside [0, 1]")
        self.value = value


class NonMonotonicFrameNumber(IngestError):
    def __init__(self, prev: int, new: int):
        super().__init__(f"frame number {new} does not increase over {prev}")
        self.prev = prev
        self.new = new


class NonMonotonicTimestamp(IngestError):
    def __init__(self, prev: float, new: float):
        super().__init__(f"timestamp {new} decreases below {prev}")
        self.prev = prev
        self.new = new


# --- specification errors ---------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    """One located problem found while parsing or checking a specification."""

    kind: str
    message: str
    line: int | None = None
    column: int | None = None

    def render(self) -> str:
        if self.line is None:
            return f"{self.kind}: {self.message}"
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


class SpecError(PercemonError):
    """A specification failed to parse or check; carries all diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))
