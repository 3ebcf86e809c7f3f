"""Tokenizer for the modeling language.

Produces a flat token stream plus recoverable diagnostics; the parser never
sees raw text.  ``#`` starts a line comment.  Keywords are reserved words.

Whitespace is space, tab, carriage return and newline.  Identifiers and
keywords start on an ``str.isalpha`` character or ``_`` and continue over
``str.isalnum`` characters and ``_``; a parameter is ``$`` followed by an
identifier.  Numbers are runs of ``str.isdecimal`` digits with an optional
fraction, so '²' (a digit to ``isdigit`` but not to ``float``) is an illegal
character.  A string ends at its closing quote or, unterminated, at a line
end or the end of the text; its escapes are ``\\\\ \\" \\n \\t``, and
any other escaped character, a line end included, is reported and kept as
it is.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .diagnostics import (
    Diagnostic,
    E_LEX_BAD_ESCAPE,
    E_LEX_BAD_PARAM,
    E_LEX_ILLEGAL_CHAR,
    E_LEX_UNTERMINATED_STRING,
    ERROR,
    SourceSpan,
)

IDENT = "ident"
NUMBER = "number"
STRING = "string"
PARAM = "param"
KEYWORD = "keyword"
OP = "op"
EOF = "eof"

KEYWORDS = frozenset(
    {
        "agent",
        "type",
        "flag",
        "bundle",
        "extends",
        "give",
        "use",
        "if",
        "not",
        "and",
        "num",
        "str",
        "service",
    }
)


@dataclass(frozen=True)
class Token:
    type: str
    value: Union[str, int, float]
    text: str
    span: SourceSpan

    def is_op(self, op: str) -> bool:
        return self.type == OP and self.value == op

    def is_kw(self, word: str) -> bool:
        return self.type == KEYWORD and self.value == word


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

# One match takes the whitespace and comments before a token, then the token;
# at the end of the text it takes only the former.  On str patterns \w is
# exactly ``isalnum() or "_"`` and \d is ``isdecimal()``.  [^\W\d] also takes
# characters that are digits or numerals but not letters ('²', 'Ⅻ', '①'), so
# a name's first character is matched alone and checked with ``isalpha``
# before _NAME_TAIL takes the rest; taking the whole name in the same match
# would scan a run of such characters again after each one.  A string takes
# in escapes, a backslash-newline and a missing closing quote.  The last
# alternative is any single character.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<word>[^\W\d])"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<param>\$[^\W\d])"
    r'|(?P<string>"(?:[^"\\\n]|\\[\s\S]?)*"?)'
    r"|(?P<op>->|==|!=|[;,:.{}=])"
    r"|(?P<other>[\s\S]))?"
)
_NAME_TAIL = re.compile(r"\w*")
_ESCAPE = re.compile(r"\\([\s\S]?)")


def tokenize(text: str, file: str = "<model>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    i = 0
    line = 1
    col = 1
    match = _TOKEN.match
    name_tail = _NAME_TAIL.match

    while True:
        m = match(text, i)
        kind = m.lastgroup
        end = m.end()
        start = m.start(kind) if kind else end
        if start > i:
            line, col = _position(text, i, start, line, col)
            i = start
        if kind is None:
            break
        if kind == "word" or kind == "param":
            head = text[end - 1]
            if head.isalpha() or head == "_":
                end = name_tail(text, end).end()
            else:
                kind, end = "other", i + 1
        raw = text[i:end]
        end_line, end_col = line, col + end - i
        if kind == "word":
            type_, value = (KEYWORD if raw in KEYWORDS else IDENT), raw
        elif kind == "op":
            type_, value = OP, raw
        elif kind == "number":
            type_, value = NUMBER, _number(raw)
        elif kind == "param":
            type_, value = PARAM, raw[1:]
        elif kind == "string":
            type_, value = STRING, raw[1:-1]
            if "\\" in raw or len(raw) == 1 or raw[-1] != '"':
                value = _string(text, i, end, line, col, file, diagnostics)
                end_line, end_col = _position(text, i, end, line, col)
        span = SourceSpan(file, line, col, end_line, end_col, i, end)
        if kind != "other":
            tokens.append(Token(type_, value, raw, span))
        elif raw == "$":
            message = "'$' must be followed by a parameter name"
            diagnostics.append(Diagnostic(ERROR, E_LEX_BAD_PARAM, message, span))
        else:
            message = f"unexpected character {raw!r}"
            diagnostics.append(Diagnostic(ERROR, E_LEX_ILLEGAL_CHAR, message, span))
        i, line, col = end, end_line, end_col

    eof_span = SourceSpan(file, line, col, line, col, i, i)
    tokens.append(Token(EOF, "", "", eof_span))
    return tokens, diagnostics


def _number(raw: str) -> Union[int, float]:
    value = float(raw)
    return int(value) if value.is_integer() else value


def _position(text: str, start: int, stop: int, line: int, col: int) -> tuple[int, int]:
    """The line and column of offset ``stop``, given those of ``start``."""
    newline = text.rfind("\n", start, stop)
    if newline < 0:
        return line, col + stop - start
    return line + text.count("\n", start, stop), stop - newline


def _string(
    text: str, i: int, end: int, line: int, col: int, file: str, diagnostics: list[Diagnostic]
) -> str:
    """The value of the string token ``text[i:end]``, which holds a backslash
    or has no closing quote.  Reports each unknown escape, with a span that
    ends just past its backslash, then a missing closing quote."""
    parts = []
    pos = i + 1
    for escape in _ESCAPE.finditer(text, i + 1, end):
        char = escape.group(1)
        parts.append(text[pos : escape.start()])
        if char in _ESCAPES:
            parts.append(_ESCAPES[char])
        else:
            reach = escape.start() + 1
            span = SourceSpan(file, line, col, *_position(text, i, reach, line, col), i, reach)
            message = f"unknown escape '\\{char or '<eof>'}' in string"
            diagnostics.append(Diagnostic(ERROR, E_LEX_BAD_ESCAPE, message, span))
            parts.append(char)
        pos = escape.end()
    # Past the last escape, a quote can only be the closing one.
    closed = pos < end and text[end - 1] == '"'
    parts.append(text[pos : end - 1 if closed else end])
    if not closed:
        span = SourceSpan(file, line, col, *_position(text, i, end, line, col), i, end)
        message = "string literal is never closed"
        diagnostics.append(Diagnostic(ERROR, E_LEX_UNTERMINATED_STRING, message, span))
    return "".join(parts)
