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
text; its escapes are ``\\\\ \\" \\n \\r \\t``, and any other escaped
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
up and the rest of the text is read by one match per token.  So, statements
(below) aside, the pattern reads a character at most twice, or three times
for a digit of such a run after such a fraction.

A token is one plain tuple of atoms, ``(type, value, text, start, end)``,
where ``start`` and ``end`` are the character offsets of ``text``.  It holds
no span, so the cyclic garbage collector stops tracking it at its first
collection.  A ``SourceSpan`` is built only for a diagnostic.  Every span
of one text shares that text's ``LineIndex``, so the lexer keeps no line or
column count.

A promise statement of the two forms that models repeat, ``A -> B: give T;``
or ``use``, with an optional ``= $p`` or ``= NAME``, and ``A -> B: bundle
N`` with or without ``;``, is one token, ``("statement", pieces, text,
start, end)``: ``pieces`` holds its names and their offsets from ``start``
(``Pieces``), all atoms.  The parser keeps the token itself in the tree:
``ast_nodes.statement_decl`` builds its declaration only when the tree's
``decls`` are read, and the resolver reads most statement tokens from their
pieces alone.  The pattern reads one after a name, as that name
alternative's tail, and holds no comment, number, string, dotted name or
condition.  It is made only where the token path would build the same
declaration with no diagnostic:

- where a declaration starts: outside every brace pair (a '}' with none open
  closes none), and after nothing, a ';', a '}' or another statement token.
  Inside a body, or after an unfinished declaration, the parser would meet
  its tokens while it recovers;
- where each name is an identifier: no keyword, and no name that starts on
  a numeral;
- for ``bundle N`` with no ';', where the next text past blanks is the end
  or starts a name other than ``if`` on an ASCII letter or '_'.  After a
  comment, an illegal character or a number no type holds (none of which is
  a token), a ';' or an ``if`` would still join the attachment.

Each name and keyword ends where its run of ``\\w`` does.  A refused
statement is read again, one match per token: the first bounded at the end
of its promiser's run, every one at the statement's end, so none can take a
statement again.

This bounds the reading.  A tail that fails has read no further than one
statement reaches, across at most one '->'.  So at most two failed tails
read a character: the one whose '->' is the last before it, and the one of
the name just before its run of blanks.  Each reads it once and steps back
over it at most once, since what follows each repeat fails on the first
character the repeat took.  A refused statement is read once more, where
only the tail of the name before a run of blanks reads that run again.  So
statements add at most seven reads of a character to those above: four by
failed tails and three in a refused statement.  The split and the matches of
one text ask for at most twice its length.
"""
from __future__ import annotations

import re
from itertools import chain
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
STATEMENT = "statement"
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


# A statement token's value: (promiser, promisee, promisee_at, keyword,
# keyword_at, name, name_at, value, value_at), each ``*_at`` an offset from
# the token's start.  ``keyword`` is "give", "use" or "bundle", ``name`` the
# type or bundle name, and ``value`` a parameter's text with its '$', a
# name, or None, with ``value_at`` 0.
Pieces = tuple[str, str, int, str, int, str, int, Union[str, None], int]

# (type, value, text, start, end): what a token is, what it means, the text
# it was read from, and the offsets of that text.
Token = tuple[str, Union[str, int, float, Pieces], str, int, int]


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_INFINITY = float("inf")

_OPERATORS = ("->", "==", "!=", ";", ",", ":", ".", "=")
_DECL_ENDS = (";", "}")  # tokens after which a declaration starts

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
# already, and matches again only where a number starts.  A name's tail,
# tried before its empty alternative, takes the rest of a promise statement
# (see the module docstring); it holds no group, so it adds nothing to a
# ``split``.  A string takes in escapes, a backslash-newline and a missing
# closing quote.  The alternative before the empty one is any single
# character.
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:#[^\r\n]*[ \t\r\n]*)*)"
    r"(->|[=!]=|[;,:.{}=]"
    r"|[^\W\d]\w*(?:[ \t\r\n]*->[ \t\r\n]*[^\W\d]\w*[ \t\r\n]*:[ \t\r\n]*"
    r"(?:(?:give|use)[ \t\r\n]+[^\W\d]\w*[ \t\r\n]*(?:=[ \t\r\n]*\$?[^\W\d]\w*[ \t\r\n]*|);"
    r"|bundle[ \t\r\n]+[^\W\d]\w*(?:[ \t\r\n]*;"
    r"|(?!\w)(?=[ \t\r\n]*(?:[A-Za-z_]|\Z))(?![ \t\r\n]*if\b)))|)"
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
    pairs: Union[Iterator[tuple[str, str]], None] = zip(parts[1::3], parts[2::3])
    pos = 0
    depth = 0  # '{' tokens not yet closed by a '}'
    while pairs is not None:
        for skip, raw in pairs:
            start = pos + len(skip)
            pos = start + len(raw)
            kind = fixed(raw)
            if kind is None:
                head = raw[:1]
                if head.isalpha() or head == "_":
                    if ":" not in raw:
                        append((IDENT, raw, raw, start, pos))
                        continue
                    # A statement, taken where a declaration starts.
                    if not depth and (
                        not tokens
                        or tokens[-1][0] == STATEMENT
                        or tokens[-1][2] in _DECL_ENDS
                    ):
                        pieces = _pieces(raw)
                        if pieces is not None:
                            append((STATEMENT, pieces, raw, start, pos))
                            continue
                    pairs = chain(_refused_pairs(text, start, pos), pairs)
                    pos = start
                    break
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
                elif head == "{":
                    depth += 1
                    kind = OP
                elif head == "}":
                    if depth:
                        depth -= 1
                    kind = OP
                elif head:
                    if ":" in raw:
                        # A statement whose promiser starts on a numeral.
                        pairs = chain(_refused_pairs(text, start, pos), pairs)
                        pos = start
                        break
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


def _pieces(raw: str) -> Union[Pieces, None]:
    """The pieces of the statement ``raw``, which the pattern's statement
    tail matched; None when a name in it is no identifier to the token path:
    a keyword, or a name that starts on a numeral.  A statement spaced as
    ``a -> b: give t = $p;`` takes its offsets from the lengths of its
    names; any other finds each name from where the one before it ends, past
    which only blanks and operators come before it."""
    words = raw.split()
    count = len(words)
    if count == 7:
        promiser, _, promisee, keyword, name, _, value = words
        promisee = promisee[:-1]
        value = value[:-1]
        canonical = f"{promiser} -> {promisee}: {keyword} {name} = {value};" == raw
    elif count == 5:
        promiser, _, promisee, keyword, name = words
        promisee = promisee[:-1]
        value = None
        if name[-1] == ";":
            name = name[:-1]
            canonical = f"{promiser} -> {promisee}: {keyword} {name};" == raw
        else:
            canonical = f"{promiser} -> {promisee}: {keyword} {name}" == raw
    else:
        canonical = False
    if canonical:
        promisee_at = len(promiser) + 4
        keyword_at = promisee_at + len(promisee) + 2
        name_at = keyword_at + len(keyword) + 1
        value_at = 0 if value is None else name_at + len(name) + 3
    else:
        words = raw.replace("->", " ").replace(":", " ").replace("=", " ").replace(";", " ").split()
        promiser, promisee, keyword, name = words[:4]
        value = words[4] if len(words) == 5 else None
        promisee_at = raw.index(promisee, len(promiser))
        keyword_at = raw.index(keyword, promisee_at + len(promisee))
        name_at = raw.index(name, keyword_at + len(keyword))
        value_at = 0 if value is None else raw.index(value, name_at + len(name))
    if not KEYWORDS.isdisjoint((promiser, promisee, name, value)):
        return None
    if not raw.isascii():
        for word in (promiser, promisee, name, value[1:] if value and value[0] == "$" else value):
            if word is not None and not (word[0].isalpha() or word[0] == "_"):
                return None
    return (promiser, promisee, promisee_at, keyword, keyword_at, name, name_at, value, value_at)


def _refused_pairs(text: str, start: int, end: int) -> Iterator[tuple[str, str]]:
    """The (skipped, token) pairs of the refused statement ``text[start:end]``,
    one match each, the first bounded at the end of the promiser's run and
    every one at ``end``: no bounded match can take a statement again."""
    match = _TOKEN.match
    promiser_end = start + len(text[start:end].split("->", 1)[0].rstrip(" \t\r\n"))
    skip, raw = match(text, start, promiser_end).groups()
    yield skip, raw
    pos = start + len(skip) + len(raw)
    while pos < end:
        skip, raw = match(text, pos, end).groups()
        yield skip, raw
        pos += len(skip) + len(raw)


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
