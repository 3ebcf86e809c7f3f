"""Tokenizer for the modeling language.

Produces a flat token stream plus recoverable diagnostics; the parser never
sees raw text.  ``#`` starts a comment, which ends before the next carriage
return or newline.  Keywords are reserved words.

Whitespace is space, tab, carriage return and newline.  Identifiers and
keywords start on an ``str.isalpha`` character or ``_`` and continue over
``str.isalnum`` characters and ``_``; a parameter is ``$`` followed by an
identifier.  Numbers are runs of ``str.isdecimal`` digits with an optional
fraction, so '²' (a digit to ``isdigit`` but not to ``int``) is an illegal
character.  A digit run is read as an exact ``int`` of any size up to the
digit limit of ``int()`` (``sys.get_int_max_str_digits()``, 4300 by
default); a fraction is read as the nearest ``float``, and as an ``int``
when that float is integral.  A number that neither holds is reported
(E-LEX-004) and yields no token.  A string ends at its closing quote or,
unterminated, before a carriage return or newline or at the end of the
text; its escapes are ``\\\\ \\" \\n \\t``, and any other escaped
character, a line end included, is reported and kept as it is.

The lexer makes one regular-expression match per token, and none for an
illegal character inside a run of ``\\w`` characters that an earlier match
has read already.

A token is one plain tuple of atoms, ``(type, value, text, start, end)``,
where ``start`` and ``end`` are the character offsets of ``text``.  It holds
no span, so the cyclic garbage collector stops tracking it at its first
collection.  A ``SourceSpan`` is built only for a diagnostic.  Every span
of one text shares that text's ``LineIndex``, so the lexer keeps no line or
column count.
"""
from __future__ import annotations

import re
from typing import Union

from .diagnostics import (
    Diagnostic,
    E_LEX_BAD_ESCAPE,
    E_LEX_BAD_PARAM,
    E_LEX_ILLEGAL_CHAR,
    E_LEX_NUMBER_RANGE,
    E_LEX_UNTERMINATED_STRING,
    ERROR,
    LineIndex,
    make_span,
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


# (type, value, text, start, end): what a token is, what it means, the text
# it was read from, and the offsets of that text.
Token = tuple[str, Union[str, int, float], str, int, int]


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_INFINITY = float("inf")

# One match takes the whitespace and comments before a token, then the token;
# at the end of the text it takes only the former.  On str patterns \w is
# exactly ``isalnum() or "_"`` and \d is ``isdecimal()``.  A word or a
# parameter takes a whole run of \w, so a name is one match.  But [^\W\d] also
# takes characters that are numerals and not letters ('²', 'Ⅻ', '①'), and a
# run that starts on one is no name: each of its characters up to the first
# letter, '_' or decimal digit is illegal, and a name there runs to the end of
# the run.  ``tokenize`` reports those characters from the run it has matched
# already, in one pass, and matches again only where a name or a number
# starts; matching the run again after each illegal character would read it
# once per character.  A string takes in escapes, a backslash-newline and a
# missing closing quote.  The last alternative is any single character.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\r\n]*)*"
    r"(?:(?P<word>[^\W\d]\w*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<param>\$[^\W\d]\w*)"
    r'|(?P<string>"(?:[^"\\\r\n]|\\[\s\S]?)*"?)'
    r"|(?P<op>->|==|!=|[;,:.{}=])"
    r"|(?P<other>[\s\S]))?"
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


def tokenize(
    text: str, file: str = "<model>", lines: Union[LineIndex, None] = None
) -> tuple[list[Token], list[Diagnostic]]:
    """The tokens of ``text``, ending in one EOF token, and the diagnostics
    of what could not be read.  Their spans share ``lines``, the text's
    ``LineIndex``, which is made here when not given."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    if lines is None:
        lines = LineIndex(text)
    i = 0
    run = 0  # where the last matched word run that starts on no letter ends
    match = _TOKEN.match
    append = tokens.append

    while True:
        if i < run and not (text[i].isalpha() or text[i] == "_" or text[i].isdecimal()):
            kind, end = "other", i + 1
        else:
            m = match(text, i)
            kind = m.lastgroup
            end = m.end()
            if kind is None:
                i = end
                break
            i = m.start(kind)
            if kind == "word" or kind == "param":
                head = text[i] if kind == "word" else text[i + 1]
                if not (head.isalpha() or head == "_"):
                    run, kind, end = end, "other", i + 1
        raw = text[i:end]
        if kind == "word":
            append((KEYWORD if raw in KEYWORDS else IDENT, raw, raw, i, end))
        elif kind == "op":
            append((OP, raw, raw, i, end))
        elif kind == "number":
            value = _number(raw)
            if value is None:
                message = "number literal is too large to read"
                span = make_span(file, i, end, lines)
                diagnostics.append(Diagnostic(ERROR, E_LEX_NUMBER_RANGE, message, span))
            else:
                append((NUMBER, value, raw, i, end))
        elif kind == "param":
            append((PARAM, raw[1:], raw, i, end))
        elif kind == "string":
            value = raw[1:-1]
            if "\\" in raw or len(raw) == 1 or raw[-1] != '"':
                value = _string(text, i, end, file, lines, diagnostics)
            append((STRING, value, raw, i, end))
        else:
            span = make_span(file, i, end, lines)
            if raw == "$":
                message = "'$' must be followed by a parameter name"
                diagnostics.append(Diagnostic(ERROR, E_LEX_BAD_PARAM, message, span))
            else:
                message = f"unexpected character {raw!r}"
                diagnostics.append(Diagnostic(ERROR, E_LEX_ILLEGAL_CHAR, message, span))
        i = end

    append((EOF, "", "", i, i))
    return tokens, diagnostics


def _number(raw: str) -> Union[int, float, None]:
    """The exact integer of a digit run, or the nearest float of a fraction;
    None when no number type holds it: an integer of more digits than
    ``int`` reads, or a fraction too large for a finite float."""
    if "." not in raw:
        try:
            return int(raw)
        except ValueError:
            return None
    value = float(raw)
    if value == _INFINITY:
        return None
    return int(value) if value.is_integer() else value


def _string(
    text: str, i: int, end: int, file: str, lines: LineIndex, diagnostics: list[Diagnostic]
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
            span = make_span(file, i, escape.start() + 1, lines)
            message = f"unknown escape '\\{char or '<eof>'}' in string"
            diagnostics.append(Diagnostic(ERROR, E_LEX_BAD_ESCAPE, message, span))
            parts.append(char)
        pos = escape.end()
    # Past the last escape, a quote can only be the closing one.
    closed = pos < end and text[end - 1] == '"'
    parts.append(text[pos : end - 1 if closed else end])
    if not closed:
        span = make_span(file, i, end, lines)
        message = "string literal is never closed"
        diagnostics.append(Diagnostic(ERROR, E_LEX_UNTERMINATED_STRING, message, span))
    return "".join(parts)
