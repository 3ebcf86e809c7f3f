"""Diagnostics with stable codes and source spans."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

ERROR = "error"
WARNING = "warning"

# Lexer
E_LEX_ILLEGAL_CHAR = "E-LEX-001"
E_LEX_UNTERMINATED_STRING = "E-LEX-002"
E_LEX_BAD_ESCAPE = "E-LEX-003"
E_LEX_BAD_PARAM = "E-LEX-005"

# Parser
E_PARSE_UNEXPECTED = "E-PARSE-001"
E_PARSE_EOF = "E-PARSE-002"

# Resolver
E_RESOLVE_UNKNOWN_AGENT = "E-RESOLVE-001"
E_RESOLVE_UNKNOWN_TYPE = "E-RESOLVE-002"
E_RESOLVE_UNKNOWN_BUNDLE = "E-RESOLVE-003"
E_RESOLVE_CYCLE = "E-RESOLVE-004"
E_RESOLVE_DUPLICATE = "E-RESOLVE-005"
E_RESOLVE_USE_CONSTRAINT = "E-RESOLVE-006"
E_RESOLVE_VALUELESS_TYPE = "E-RESOLVE-007"
E_RESOLVE_KIND_CONFLICT = "E-RESOLVE-008"
E_RESOLVE_NOT_A_FLAG = "E-RESOLVE-009"
E_RESOLVE_TYPE_COLLISION = "E-RESOLVE-010"

# Warnings
W_AUTONOMY = "W-AUTONOMY-001"


@dataclass(frozen=True)
class SourceSpan:
    """A half-open region of one file; lines and columns are 1-based, offsets
    are 0-based character indexes into the source text."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int
    start_offset: int = 0
    end_offset: int = 0

    def __post_init__(self) -> None:
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span must not end before it starts")

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        start = min((self.start_line, self.start_col), (other.start_line, other.start_col))
        end = max((self.end_line, self.end_col), (other.end_line, other.end_col))
        return SourceSpan(
            self.file,
            *start,
            *end,
            min(self.start_offset, other.start_offset),
            max(self.end_offset, other.end_offset),
        )

    def overlaps_offsets(self, start: int, end: int) -> bool:
        return self.start_offset < end and start < self.end_offset


def point_span(file: str, line: int, col: int, offset: int) -> SourceSpan:
    return SourceSpan(file, line, col, line, col + 1, offset, offset + 1)


@dataclass(frozen=True)
class Diagnostic:
    severity: Literal["error", "warning"]
    code: str
    message: str
    span: SourceSpan

    def formatted(self) -> str:
        s = self.span
        return (
            f"{s.file}:{s.start_line}:{s.start_col}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )


def diagnostic_sort_key(d: Diagnostic) -> tuple:
    return (
        d.span.file,
        d.span.start_line,
        d.span.start_col,
        0 if d.severity == ERROR else 1,
        d.code,
        d.message,
    )


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)
