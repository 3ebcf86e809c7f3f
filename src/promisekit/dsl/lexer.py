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

The lexer reads a text with one ``split`` of its pattern, which gives each
token's text with the whitespace and comments before it; offsets come from
the running length.  The pattern is unrolled, ``normal* (special normal*)*``:
each pass of an outer repeat starts on a character that the run before it
cannot take, and no group is optional.  It has no possessive quantifier or
atomic group, since Python 3.10 rejects both.  A keyword or an operator
takes its type from one dict of fixed texts, any other token from its first
character.  Only a run of ``\\w`` characters that starts on a numeral that
is no letter costs more: a number inside it is matched once more, and when
that number takes a fraction past the run, the pairs after it no longer line
up and the rest of the text is read by one match per token.  So the pattern
reads a character at most twice, or three times for a digit of such a run
after such a fraction.

A token is one plain tuple of atoms, ``(type, value, text, start, end)``,
where ``start`` and ``end`` are the character offsets of ``text``.  It holds
no span, so the cyclic garbage collector stops tracking it at its first
collection.  A ``SourceSpan`` is built only for a diagnostic.  Every span
of one text shares that text's ``LineIndex``, so the lexer keeps no line or
column count.
"""
from __future__ import annotations

import re
from typing import Iterator, Union

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

_OPERATORS = ("->", "==", "!=", ";", ",", ":", ".", "{", "}", "=")

# The type of each token whose text fixes it.
_FIXED = {**dict.fromkeys(KEYWORDS, KEYWORD), **dict.fromkeys(_OPERATORS, OP)}

# One match takes the whitespace and comments before a token, as group 1, then
# the token, as group 2; at the end of the text it takes only the former, and
# group 2 its empty last alternative.  The operators come first, as the most
# common tokens; no other alternative starts on their first characters.  The
# skip and a string are unrolled: a run of plain characters, then any number
# of a comment or an escape each followed by such a run, so each character
# can be read in one way only.  On str patterns \w is exactly
# ``isalnum() or "_"`` and \d is ``isdecimal()``.  A word or a parameter
# takes a whole run of \w, so a name is one match.  But [^\W\d] also takes
# characters that are numerals and not letters ('²', 'Ⅻ', '①'), and a run
# that starts on one is no name: each of its characters up to the first
# letter, '_' or decimal digit is illegal, and a name there runs to the end of
# the run.  ``tokenize`` reports those characters from the run it has read
# already, and matches again only where a number starts.  A string takes in
# escapes, a backslash-newline and a missing closing quote.  The alternative
# before the empty one is any single character.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:#[^\r\n]*[ \t\r\n]*)*)"
    r"(->|[=!]=|[;,:.{}=]"
    r"|[^\W\d]\w*"
    r"|\d+(?:\.\d+|)"
    r"|\$[^\W\d]\w*"
    r'|"[^"\\\r\n]*(?:\\[\s\S]?[^"\\\r\n]*)*"?'
    r"|[\s\S]|)"
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
    append = tokens.append
    fixed = _FIXED.get
    # The split gives, after an empty head, (skipped, token, gap) per
    # match, the gap always empty: each match starts where the one before it
    # ends, and the last one has no token.
    parts = _TOKEN.split(text)
    pairs = zip(parts[1::3], parts[2::3])
    pos = 0
    while pairs is not None:
        for skip, raw in pairs:
            start = pos + len(skip)
            pos = start + len(raw)
            kind = fixed(raw)
            if kind is None:
                head = raw[:1]
                if head.isalpha() or head == "_":
                    kind = IDENT
                elif head.isdecimal():
                    _read_number(raw, start, file, lines, tokens, diagnostics)
                    continue
                elif head == '"':
                    value = raw[1:-1]
                    if "\\" in raw or len(raw) == 1 or raw[-1] != '"':
                        value = _string(text, start, pos, file, lines, diagnostics)
                    append((STRING, value, raw, start, pos))
                    continue
                elif head == "$" and (raw[1:2].isalpha() or raw[1:2] == "_"):
                    append((PARAM, raw[1:], raw, start, pos))
                    continue
                elif head:
                    end = pos
                    pos = _read_illegal(text, start, end, file, lines, tokens, diagnostics)
                    if pos > end:
                        # A number took a fraction past the run, so the pairs
                        # after it no longer line up: match from there on.
                        pairs = _matched_pairs(text, pos)
                        break
                    continue
                else:
                    pairs = None
                    break
            append((kind, raw, raw, start, pos))

    append((EOF, "", "", pos, pos))
    return tokens, diagnostics


def _matched_pairs(text: str, pos: int) -> Iterator[tuple[str, str]]:
    """The (skipped, token) pairs of ``text`` from ``pos`` on, one match
    each; the last one has no token."""
    match = _TOKEN.match
    while True:
        skip, raw = match(text, pos).groups()
        yield skip, raw
        pos += len(skip) + len(raw)


def _read_illegal(
    text: str,
    start: int,
    end: int,
    file: str,
    lines: LineIndex,
    tokens: list[Token],
    diagnostics: list[Diagnostic],
) -> int:
    """Reads ``text[start:end]``: one character no token starts on, a '$'
    with no name, or a run of \\w that starts on a numeral and not on a
    letter, possibly after a '$'.  Reports each character up to the first
    letter, '_' or decimal digit, and reads a name from there to ``end`` and
    a number by one more match.  Returns where it stopped reading, which is
    past ``end`` when a number there has a fraction."""
    i = start
    while i < end:
        char = text[i]
        if char.isalpha() or char == "_":
            name = text[i:end]
            tokens.append((_FIXED.get(name, IDENT), name, name, i, end))
            return end
        if char.isdecimal():
            raw = _TOKEN.match(text, i).group(2)
            _read_number(raw, i, file, lines, tokens, diagnostics)
            i += len(raw)
            continue
        span = make_span(file, i, i + 1, lines)
        if char == "$":
            message = "'$' must be followed by a parameter name"
            diagnostics.append(Diagnostic(ERROR, E_LEX_BAD_PARAM, message, span))
        else:
            message = f"unexpected character {char!r}"
            diagnostics.append(Diagnostic(ERROR, E_LEX_ILLEGAL_CHAR, message, span))
        i += 1
    return i


def _read_number(
    raw: str,
    start: int,
    file: str,
    lines: LineIndex,
    tokens: list[Token],
    diagnostics: list[Diagnostic],
) -> None:
    """Adds the number token ``raw`` at ``start``, or reports that no number
    type holds it."""
    value = _number(raw)
    end = start + len(raw)
    if value is None:
        message = "number literal is too large to read"
        span = make_span(file, start, end, lines)
        diagnostics.append(Diagnostic(ERROR, E_LEX_NUMBER_RANGE, message, span))
    else:
        tokens.append((NUMBER, value, raw, start, end))


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
