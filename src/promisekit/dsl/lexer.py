"""Tokenizer for the modeling language.

Produces a flat token stream plus recoverable diagnostics; the parser never
sees raw text.  ``#`` starts a line comment.  Keywords are reserved words.

Two paths produce the same tokens.  The fast path matches one compiled
alternation at the current offset: whitespace and comments, ASCII-initial
identifiers and keywords, ASCII numbers, ``$params``, strings without escapes,
and operators.  Everything else goes through the slow path, which scans one
token a character at a time: identifiers and numbers that start with or run
into a non-ASCII letter or digit, strings with escapes or without a closing
quote, a ``$`` without a name, and illegal characters.  Identifiers continue
over ``str.isalnum`` characters and numbers over ``str.isdecimal`` ones, so
'²' (a digit to ``isdigit`` but not to ``float``) is an illegal character.
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

# The fast path.  Its ASCII runs stop where ``isalnum``/``isdecimal`` would go
# on, so ``tokenize`` sends a word, number or parameter that is followed by a
# non-ASCII character to the slow path instead.
_FAST = re.compile(
    r"(?P<skip>(?:[ \t\r\n]+|#[^\n]*)+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<param>\$[A-Za-z_][A-Za-z0-9_]*)"
    r'|(?P<string>"[^"\\\n]*")'
    r"|(?P<op>->|==|!=|[;,:.{}=])"
)


def tokenize(text: str, file: str = "<model>") -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    match = _FAST.match
    # In pure-ASCII text no fast token can be cut short by a non-ASCII tail.
    all_ascii = text.isascii()

    while i < n:
        m = match(text, i)
        kind = m.lastgroup if m is not None else None
        if kind == "skip":
            end = m.end()
            newline = text.rfind("\n", i, end)
            if newline < 0:
                col += end - i
            else:
                line += text.count("\n", i, end)
                col = end - newline
            i = end
            continue
        # Two characters: a number may go on with "." and a non-ASCII digit.
        if kind is not None and (
            all_ascii or kind in ("string", "op") or text[m.end() : m.end() + 2].isascii()
        ):
            raw = m.group()
            end = m.end()
            if kind == "word":
                type_, value = (KEYWORD if raw in KEYWORDS else IDENT), raw
            elif kind == "number":
                type_, value = NUMBER, _number(raw)
            elif kind == "param":
                type_, value = PARAM, raw[1:]
            elif kind == "string":
                type_, value = STRING, raw[1:-1]
            else:
                type_, value = OP, raw
            stop = col + end - i
            tokens.append(Token(type_, value, raw, SourceSpan(file, line, col, line, stop, i, end)))
            i, col = end, stop
            continue
        i, line, col = _slow_token(text, file, i, line, col, tokens, diagnostics)

    eof_span = SourceSpan(file, line, col, line, col, i, i)
    tokens.append(Token(EOF, "", "", eof_span))
    return tokens, diagnostics


def _number(raw: str) -> Union[int, float]:
    value = float(raw)
    return int(value) if value.is_integer() else value


def _slow_token(
    text: str,
    file: str,
    i: int,
    line: int,
    col: int,
    tokens: list[Token],
    diagnostics: list[Diagnostic],
) -> tuple[int, int, int]:
    """Scan one token (or one diagnosed character) character by character.

    Handles what the fast pattern leaves out: non-ASCII identifiers and
    digits, strings with escapes or without a closing quote, a ``$`` without
    a name, and illegal characters.  Returns the new (offset, line, column).
    """
    n = len(text)
    start_i, start_line, start_col = i, line, col

    def span_here() -> SourceSpan:
        return SourceSpan(file, start_line, start_col, line, col, start_i, i)

    def emit(type_: str, value) -> None:
        tokens.append(Token(type_, value, text[start_i:i], span_here()))

    def advance() -> None:
        nonlocal i, line, col
        if i < n and text[i] == "\n":
            line += 1
            col = 1
        else:
            col += 1
        i += 1

    ch = text[i]
    if ch.isalpha() or ch == "_":
        while i < n and (text[i].isalnum() or text[i] == "_"):
            advance()
        word = text[start_i:i]
        emit(KEYWORD if word in KEYWORDS else IDENT, word)
    elif ch.isdecimal():
        # isdecimal, not isdigit: float() rejects digits such as '²'.
        while i < n and text[i].isdecimal():
            advance()
        if i + 1 < n and text[i] == "." and text[i + 1].isdecimal():
            advance()
            while i < n and text[i].isdecimal():
                advance()
        emit(NUMBER, _number(text[start_i:i]))
    elif ch == "$":
        advance()
        if i >= n or not (text[i].isalpha() or text[i] == "_"):
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    E_LEX_BAD_PARAM,
                    "'$' must be followed by a parameter name",
                    span_here(),
                )
            )
        else:
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            emit(PARAM, text[start_i + 1 : i])
    elif ch == '"':
        advance()
        value_chars: list[str] = []
        closed = False
        while i < n:
            c = text[i]
            if c == '"':
                advance()
                closed = True
                break
            if c == "\n":
                break
            if c == "\\":
                advance()
                if i < n and text[i] in _ESCAPES:
                    value_chars.append(_ESCAPES[text[i]])
                    advance()
                else:
                    bad = text[i] if i < n else "<eof>"
                    diagnostics.append(
                        Diagnostic(
                            ERROR,
                            E_LEX_BAD_ESCAPE,
                            f"unknown escape '\\{bad}' in string",
                            span_here(),
                        )
                    )
                    if i < n:
                        value_chars.append(text[i])
                        advance()
                continue
            value_chars.append(c)
            advance()
        if not closed:
            diagnostics.append(
                Diagnostic(
                    ERROR,
                    E_LEX_UNTERMINATED_STRING,
                    "string literal is never closed",
                    span_here(),
                )
            )
        emit(STRING, "".join(value_chars))
    else:
        advance()
        diagnostics.append(
            Diagnostic(
                ERROR,
                E_LEX_ILLEGAL_CHAR,
                f"unexpected character {ch!r}",
                span_here(),
            )
        )
    return i, line, col
