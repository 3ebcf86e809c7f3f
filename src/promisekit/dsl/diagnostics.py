"""Diagnostics with stable codes and source spans.

A span is a file name and two character offsets into that file's text, plus
the text's shared ``LineIndex``.  Lines and columns are worked out from the
offsets only when a diagnostic is formatted, sorted or written as JSON, so
the lexer and parser never count lines.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from typing import Literal

from ..value import Value

ERROR = "error"
WARNING = "warning"

# Lexer
E_LEX_ILLEGAL_CHAR = "E-LEX-001"
E_LEX_UNTERMINATED_STRING = "E-LEX-002"
E_LEX_BAD_ESCAPE = "E-LEX-003"
E_LEX_NUMBER_RANGE = "E-LEX-004"
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

# Warnings
W_AUTONOMY = "W-AUTONOMY-001"


_NEWLINE = re.compile("\n")


class LineIndex:
    """Where the lines of one source text start, shared by all its spans.

    The newline offsets are found on the first call of ``position``; in the
    program, only formatting, sorting or writing out a diagnostic makes one.
    """

    __slots__ = ("text", "_newlines")

    def __init__(self, text: str) -> None:
        self.text = text
        self._newlines: list[int] | None = None

    def position(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of a 0-based offset.  A line ends
        with its newline; the column counts characters."""
        newlines = self._newlines
        if newlines is None:
            newlines = self._newlines = [m.start() for m in _NEWLINE.finditer(self.text)]
        line = bisect_left(newlines, offset)
        return line + 1, (offset - newlines[line - 1] if line else offset + 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LineIndex) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)


class SourceSpan(namedtuple("SourceSpan", "file start_offset end_offset lines")):
    """A half-open region ``[start_offset, end_offset)`` of one file, as
    0-based character offsets into the text that ``lines`` indexes.

    ``start_line``, ``start_col``, ``end_line`` and ``end_col`` are 1-based
    and derived from the offsets.  Offset 0 is line 1, column 1 of every
    text, so a span at the start of a file may carry ``LineIndex("")``.
    """

    __slots__ = ()

    def __new__(cls, file: str, start_offset: int, end_offset: int, lines: LineIndex):
        if end_offset < start_offset:
            raise ValueError("span must not end before it starts")
        return tuple.__new__(cls, (file, start_offset, end_offset, lines))

    @property
    def start_line(self) -> int:
        return self.lines.position(self.start_offset)[0]

    @property
    def start_col(self) -> int:
        return self.lines.position(self.start_offset)[1]

    @property
    def end_line(self) -> int:
        return self.lines.position(self.end_offset)[0]

    @property
    def end_col(self) -> int:
        return self.lines.position(self.end_offset)[1]

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        file, start, end, lines = self
        if other.start_offset < start:
            start = other.start_offset
        if other.end_offset > end:
            end = other.end_offset
        if end < start:
            raise ValueError("span must not end before it starts")
        return tuple.__new__(SourceSpan, (file, start, end, lines))

    def overlaps_offsets(self, start: int, end: int) -> bool:
        return self.start_offset < end and start < self.end_offset


def make_span(file: str, start: int, end: int, lines: LineIndex) -> SourceSpan:
    """The span of ``[start, end)`` in the text that ``lines`` indexes."""
    if end < start:
        raise ValueError("span must not end before it starts")
    return tuple.__new__(SourceSpan, (file, start, end, lines))


class Diagnostic(Value):
    __slots__ = ("severity", "code", "message", "span")

    def __init__(
        self, severity: Literal["error", "warning"], code: str, message: str, span: SourceSpan
    ) -> None:
        set_severity, set_code, set_message, set_span = self._setters
        set_severity(self, severity)
        set_code(self, code)
        set_message(self, message)
        set_span(self, span)

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
