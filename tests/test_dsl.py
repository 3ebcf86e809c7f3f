"""Surface language: lexing, parsing, printing, and name resolution."""
from __future__ import annotations

import copy
import gc
import pickle
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from promisekit import corpus
from promisekit.dsl import (
    Diagnostic,
    has_errors,
    LineIndex,
    make_span,
    parse,
    print_model,
    resolve,
    SourceSpan,
    tokenize,
)
from promisekit.dsl import lexer as lexer_module, resolver as resolver_module
from promisekit.dsl.ast_nodes import (
    AgentDecl,
    BodyNode,
    BundleRef,
    IdentTerm,
    ModelAst,
    NumberTerm,
    ParamTerm,
    PromiseDecl,
    TypeDecl,
)
from promisekit.errors import PromiseModelError
from promisekit.model import (
    Attribute,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    NamedConst,
    NumConst,
    Parameter,
    StrConst,
)
from promisekit.value import Value

from bruteforce import reference_tokenize
from loaders import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

GEOMETRY = """\
agent rect;
agent viewer;

type width: num;
type height: num;

bundle Rectangle {
  give width = $w;
  give height = $h;
}

bundle Square extends Rectangle {
  give $w = $h;
}

rect -> viewer: bundle Rectangle;
"""


def ring_text(n: int) -> str:
    """n agents in a ring, each making the same four promises: a bundle and
    three direct bodies."""
    agents = [f"a{i}" for i in range(n)]
    lines = [
        f"agent {', '.join(agents)};", "type token: num;", "type load: num;", "flag ready;",
        "bundle Feed { give token = $t; give load = $t if ready; }",
    ]
    for i, a in enumerate(agents):
        succ, pred = agents[(i + 1) % n], agents[i - 1]
        lines += [
            f"{a} -> {succ}: bundle Feed",
            f"{a} -> {succ}: give load = $x;",
            f"{a} -> {pred}: give ready;",
            f"{a} -> {pred}: use token;",
        ]
    return "\n".join(lines) + "\n"


def errors_of(diags) -> list[str]:
    return [d.code for d in diags if d.severity == "error"]


def resolve_text(text: str):
    parsed = parse(text, "m.pml")
    assert parsed.ok, [d.formatted() for d in parsed.diagnostics]
    return resolve(parsed.ast)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class CountingPattern:
    """The lexer's pattern, counting its calls and the characters each one
    reads: a match reads from ``pos`` to its end, a ``split`` the whole
    text."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.splits = self.matches = self.consumed = 0

    @property
    def calls(self) -> int:
        return self.splits + self.matches

    def match(self, text, pos=0, endpos=sys.maxsize):
        m = self.pattern.match(text, pos, endpos)
        self.matches += 1
        self.consumed += m.end() - pos
        return m

    def split(self, text):
        self.splits += 1
        self.consumed += len(text)
        return self.pattern.split(text)


class TestLexer:
    def test_token_stream_shape(self):
        tokens, diags = tokenize("give width = $w; # noise\n", "t.pml")
        assert diags == []
        assert [t[0] for t in tokens] == [
            "keyword", "ident", "op", "param", "op", "eof"
        ]
        assert tokens[3][1] == "w"
        assert tokens[3][2] == "$w"

    def test_numbers_and_strings(self):
        tokens, diags = tokenize('x = 90; y = 2.5; z = "a\\"b";')
        assert diags == []
        values = [t[1] for t in tokens if t[0] in ("number", "string")]
        assert values == [90, 2.5, 'a"b']

    def test_digit_runs_are_exact_integers(self):
        digits = "9007199254740993"  # 2**53 + 1, which no float holds
        tokens, diags = tokenize(f"{digits} 2.0 {'7' * 400}")
        assert diags == []
        assert [t[1] for t in tokens[:-1]] == [2**53 + 1, 2, int("7" * 400)]
        assert [type(t[1]) for t in tokens[:-1]] == [int, int, int]

    @pytest.mark.parametrize(
        "literal", ["9" * 4301, "1" * 400 + ".5"], ids=["too-many-digits", "float-overflow"]
    )
    def test_number_no_type_holds_is_reported(self, literal):
        tokens, diags = tokenize(f"x = {literal};")
        assert [(d.code, d.message) for d in diags] == [
            ("E-LEX-004", "number literal is too large to read")
        ]
        assert (diags[0].span.start_offset, diags[0].span.end_offset) == (4, 4 + len(literal))
        assert [t[0] for t in tokens] == ["ident", "op", "op", "eof"]

    def test_spans_are_one_based(self):
        text = "agent a;\nagent b;"
        tokens, _ = tokenize(text)
        _, _, _, start, end = [t for t in tokens if t[2] == "agent"][1]
        span = make_span("<model>", start, end, LineIndex(text))
        assert (span.start_line, span.start_col) == (2, 1)

    def test_illegal_character(self):
        _, diags = tokenize("agent @;")
        assert errors_of(diags) == ["E-LEX-001"]

    def test_unterminated_string(self):
        _, diags = tokenize('x = "oops')
        assert errors_of(diags) == ["E-LEX-002"]

    def test_bad_escape(self):
        _, diags = tokenize('x = "a\\qb";')
        assert errors_of(diags) == ["E-LEX-003"]

    def test_bare_dollar(self):
        _, diags = tokenize("give $ = 1;")
        assert errors_of(diags) == ["E-LEX-005"]

    def test_superscript_digit_is_an_illegal_character(self):
        # str.isdigit accepts '²' but float() does not: it is not a number.
        tokens, diags = tokenize("width = ²;")
        assert errors_of(diags) == ["E-LEX-001"]
        assert diags[0].message == "unexpected character '²'"
        assert [t[0] for t in tokens] == ["ident", "op", "op", "eof"]

    def test_superscript_after_digits_ends_the_number(self):
        tokens, diags = tokenize("11²")
        assert [(t[0], t[1]) for t in tokens] == [("number", 11), ("eof", "")]
        assert errors_of(diags) == ["E-LEX-001"]
        assert (diags[0].span.start_col, diags[0].span.end_col) == (3, 4)

    def test_non_ascii_letters_and_digits_continue_tokens(self):
        tokens, diags = tokenize("11é x١ 1١ 2.١ $pé")
        assert diags == []
        assert [t[:3] for t in tokens[:-1]] == [
            ("number", 11, "11"),
            ("ident", "é", "é"),
            ("ident", "x١", "x١"),
            ("number", 11, "1١"),
            ("number", 2.1, "2.١"),
            ("param", "pé", "$pé"),
        ]

    def test_columns_count_characters_across_lines_and_comments(self):
        text = '# é comment\r\n\t"é" é;\n  x'
        tokens, _ = tokenize(text)
        lines = LineIndex(text)
        spans = []
        for _, _, raw, start, end in tokens:
            span = make_span("<model>", start, end, lines)
            spans.append((raw, span.start_line, span.start_col, span.end_col))
        assert spans == [
            ('"é"', 2, 2, 5),
            ("é", 2, 6, 7),
            (";", 2, 7, 8),
            ("x", 3, 3, 4),
            ("", 3, 4, 4),
        ]

    @pytest.mark.parametrize(
        "text",
        ["²" * 20000, ("²" * 50 + "a") * 400, "$²" * 10000],
        ids=["numerals", "numerals-then-a-name", "dollar-numeral"],
    )
    def test_a_run_of_numerals_is_read_in_linear_time(self, text, monkeypatch):
        """A count, not a timing: one pass or match per token or diagnostic,
        and each character read by at most two of them."""
        counting = CountingPattern(lexer_module._TOKEN)
        monkeypatch.setattr(lexer_module, "_TOKEN", counting)
        tokens, diags = tokenize(text)
        assert counting.calls <= len(tokens) + len(diags) + 1
        assert counting.consumed <= 2 * len(text)

    @pytest.mark.parametrize("name", [*corpus.names(), "ring"])
    def test_a_clean_text_is_read_in_one_pass(self, name, monkeypatch):
        """A text with no numeral run and no refused statement is read by
        one ``split`` and no ``match``, its statements taken whole."""
        text = ring_text(20) if name == "ring" else corpus.read(name)
        counting = CountingPattern(lexer_module._TOKEN)
        monkeypatch.setattr(lexer_module, "_TOKEN", counting)
        tokens, diags = tokenize(text)
        assert diags == [] and len(text) > 400
        assert sum(t[0] == "statement" for t in tokens) >= 2
        assert (counting.splits, counting.matches) == (1, 0)

    def test_a_ring_statement_is_one_token(self):
        """Each of the 4 x 200 promise statements of a ring of 200 agents
        is read as one statement token."""
        tokens, diags = tokenize(ring_text(200))
        assert diags == []
        assert sum(t[0] == "statement" for t in tokens) == 4 * 200

    @pytest.mark.parametrize(
        "text",
        [
            "a ->\n" * 5000,
            "a -> b: bundle c #\n" * 2000,
            "a" + " \t\r\n" * 5000 + "-> b" + " " * 20000 + ": give x" + "\n" * 20000 + "= $y;",
            "a -> b: give x" + " " * 20000 + "@",
            "bundle B {\n" + "a -> b: give x = $y;\n" * 2000 + "}\n",
            "give -> a: use b;\n" * 2000,
            "x a ->   b: bundle give   \n" * 2000,
            "\u00b2a -> b: use t;\n" * 2000,
        ],
        ids=[
            "arrows", "commented-attachments", "blank-runs", "unfinished", "refused-in-bundle",
            "keyword-promiser", "keyword-bundle", "numeral-promiser",
        ],
    )
    def test_statements_read_each_character_at_most_twice(self, text, monkeypatch):
        """A count, not a timing: the split reads the text once, and only a
        refused statement is read again, by one bounded match per token."""
        counting = CountingPattern(lexer_module._TOKEN)
        monkeypatch.setattr(lexer_module, "_TOKEN", counting)
        tokens, diags = tokenize(text)
        assert counting.splits == 1
        assert counting.matches <= len(tokens) + len(diags)
        assert counting.consumed <= 2 * len(text)

    def test_tokens_are_left_to_the_collector_untracked(self):
        """A token is a tuple of atoms, or a statement token that holds one
        tuple of atoms, which collections stop tracking, and a text that
        lexes cleanly makes no span at all.  A collection that visits a
        statement token before its pieces leaves it to the next one."""
        text = ring_text(20) + 'type s: str;\na0 -> a1: give s = "x";\na1 -> a2: give load = 2.5;\n'

        def spans() -> int:
            return sum(type(o) is SourceSpan for o in gc.get_objects())

        gc.collect()
        before = spans()
        tokens, diags = tokenize(text)
        assert diags == [] and spans() == before
        gc.collect()
        gc.collect()
        assert {t[0] for t in tokens} == {
            "keyword", "ident", "op", "param", "number", "string", "statement", "eof"
        }
        assert [t for t in tokens if gc.is_tracked(t)] == []

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
    def test_unterminated_string_ends_at_any_line_end(self, line_end):
        lines = [
            "agent a, b;", "type s: str;", 'a -> b: give s = "oops;', "b -> a: use s;"
        ]
        result = parse(line_end.join(lines))
        assert errors_of(result.diagnostics) == ["E-LEX-002", "E-PARSE-001"]


# One- and several-character pieces: letters, digits and numerals outside
# ASCII (some of which continue a name but cannot start one), whitespace the
# language does not skip, line ends, escapes, a backslash-newline,
# unterminated strings, parameters and the two-character operators, so that
# random texts reach every alternative of the lexer's pattern.
LEX_PIECES = [
    "a", "Z", "_", "k9", "0", "7", ".", ";", ",", ":", "{", "}", "=", "-",
    ">", "!", "$", "#", "3.", '"', "\\", " ", "\t", "\r", "\n", "@", "é", "²",
    "½", "١", "Ⅻ", "①", "ß", "Ω", "日本", "\u00a0", "\x0c", "$²", "$é", "_²",
    "a²", "->", "==", "!=", "give", "agent", "$p", "12.5", "9007199254740993",
    "0.00001", '"ab"', '"a\\nb"', "²²²", "²Ⅻ①", "²5", "²_x", "$²²",
    '"a\\qb"', '"a\\rb"', '"a\\\nb"', '"open', "# note\n",
]


def assert_lexes_like_the_reference(text: str) -> None:
    """Every token and diagnostic, with the lines and columns that the
    spans derive from offsets against those the reference counts."""

    def place(span: SourceSpan) -> tuple:
        return (
            span.file, span.start_line, span.start_col, span.end_line, span.end_col,
            span.start_offset, span.end_offset,
        )

    tokens, diags = tokenize(text, "t.pml")
    expected_tokens, expected_diags = reference_tokenize(text, "t.pml")
    expected = [
        (type_, value, type(value), raw, where) for type_, value, raw, where in expected_tokens
    ]
    lines = LineIndex(text)
    found = []
    for type_, value, raw, start, end in tokens:
        if type_ == "statement":
            # Its ends are token boundaries, and it stands for the tokens
            # between them.
            inside = [
                t for t in expected if start <= t[4][5] and t[4][6] <= end and t[0] != "eof"
            ]
            assert (inside[0][4][5], inside[-1][4][6]) == (start, end)
            found += inside
        else:
            found.append(
                (type_, value, type(value), raw, place(make_span("t.pml", start, end, lines)))
            )
    assert found == expected
    assert [(d.severity, d.code, d.message, place(d.span)) for d in diags] == expected_diags


@settings(max_examples=400)
@given(st.lists(st.sampled_from(LEX_PIECES), max_size=40).map("".join))
@example('x = "a\\\nb";')
@example("Ⅻ1 aⅫ $Ⅻ")
@example("²Ⅻ①5" * 1249 + "²a²5")
@example("x\r\n\t𝐀 😀 \"é\r\n" + "9" * 4301 + " " + "1" * 400 + ".5")
@example("²5.5.7 ²a ²5²x.5 $²9.0e ²if")
def test_lexer_matches_the_reference_lexer(text):
    assert_lexes_like_the_reference(text)


MODEL_TEXTS = {
    **{name: corpus.read(name) for name in corpus.names()},
    **{
        f"invalid/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted((GOLDEN / "invalid").glob("*.pml"))
    },
}


# Single-edit mutations of the models above, spread evenly over them.
LEX_MUTATIONS = 3000


@pytest.mark.parametrize("name", sorted(MODEL_TEXTS))
def test_whole_models_lex_like_the_reference(name):
    """Each shipped and golden model, then seeded copies of it with one
    edit: a ``LEX_PIECES`` entry inserted at a random offset, or put in
    place of the one to three characters there.  Tokens, offsets and
    diagnostics are compared on at least ``LEX_MUTATIONS`` texts in all,
    which takes under 5 s together on one core of a 2-vCPU Xeon VM."""
    text = MODEL_TEXTS[name]
    assert_lexes_like_the_reference(text)
    rng = random.Random(name)
    for _ in range(-(-LEX_MUTATIONS // len(MODEL_TEXTS))):
        at = rng.randrange(len(text) + 1)
        cut = at + rng.choice((0, 0, 1, 2, 3))
        assert_lexes_like_the_reference(text[:at] + rng.choice(LEX_PIECES) + text[cut:])


# ---------------------------------------------------------------------------
# Statement tokens
# ---------------------------------------------------------------------------

def token_path_pattern():
    """The lexer's pattern without the tail that reads a whole promise
    statement after its promiser's name: every statement read token by
    token."""
    pattern = lexer_module._TOKEN.pattern
    start = pattern.index(r"(?:[ \t\r\n]*->")
    end = pattern.index(r"|\d+")
    assert pattern[end - 2 : end] == "|)"
    return re.compile(pattern[:start] + pattern[end:])


TOKEN_PATH = token_path_pattern()


def syntax(node):
    """A syntax tree as nested tuples, with every hidden offset."""
    if isinstance(node, Value):
        return (
            type(node).__name__,
            *(syntax(getattr(node, name)) for name in node._fields if name != "lines"),
        )
    if isinstance(node, tuple):
        return tuple(syntax(item) for item in node)
    return node


def parse_both_ways(text: str) -> tuple:
    """(tree, diagnostics) of ``text`` from ``parse`` and from the token path."""
    found = []
    for pattern in (lexer_module._TOKEN, TOKEN_PATH):
        saved, lexer_module._TOKEN = lexer_module._TOKEN, pattern
        try:
            result = parse(text, "t.pml")
        finally:
            lexer_module._TOKEN = saved
        diags = [(d.severity, d.code, d.message, d.span.start_offset, d.span.end_offset)
                 for d in result.diagnostics]
        found.append((syntax(result.ast), diags))
    return tuple(found)


# Statement pieces, each as (well-formed, traps): names, then names that are
# keywords or start on a numeral; the statement keywords, then keywords
# that run into a name; values the statement token takes, then values it
# leaves to the token path; blanks with line ends, then comments.
STATEMENT_NAMES = (
    ["a", "b2", "_x", "é", "a²", "givex"], ["\u00b2a", "give", "bundle", "if", "Ⅻ"]
)
STATEMENT_KEYWORDS = ["give", "use", "bundle"], ["givex", "bundleX", "usE"]
STATEMENT_GAPS = [" ", "\n ", "\t"], ["", " # c\n"]
STATEMENT_VALUES = (
    ["", "= $p", "=$give", "= b2"], ["= $\u00b2", "= if", "= 1", '= "s"', "= a.b", "=="]
)
STATEMENT_CONDITIONS = [""], [" if f", " if not f", " iffy"]
STATEMENT_ENDS = [";", ""], [" # c\n;", "\n;", ";;", " if"]
BLANKS = ["", " ", "\t", "\n", "\r\n", "\r", "  \n\t"], [" # c\n", "#\n", "\u00a0"]
# What a statement may follow: nothing, a finished or an unfinished
# declaration, an illegal character, a bundle body, or a brace on its own.
STATEMENT_CONTEXTS = [
    "\n", "agent a\n", "agent a;\n", "@", "bundle B { give x; ", "bundle B {", " }", "}", "{",
    "type t: num;", "a -> b: bundle B if f\n", "x ", "a.b ", '"s" ',
]


@st.composite
def statements(draw) -> str:
    """A statement from the grammar, each of its pieces well-formed nine
    times in ten."""

    def pick(pieces):
        clean, traps = pieces
        return draw(st.sampled_from(clean * 9 * len(traps) + traps * len(clean)))

    return "".join([
        pick(STATEMENT_NAMES), pick(BLANKS), "->", pick(BLANKS), pick(STATEMENT_NAMES),
        pick(BLANKS), ":", pick(BLANKS), pick(STATEMENT_KEYWORDS), pick(STATEMENT_GAPS),
        pick(STATEMENT_NAMES), pick(BLANKS), pick(STATEMENT_VALUES), pick(BLANKS),
        pick(STATEMENT_CONDITIONS), pick(STATEMENT_ENDS),
    ])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(statements(), st.sampled_from(STATEMENT_CONTEXTS)), max_size=8).map(
    "".join
))
@example("a -> b: bundle B # c\n;")
@example("a -> b: bundle B if f;")
@example("x\t\u00b2a -> b: use t;")
@example("a -> b: bundle give")
@example("bundle B { give x; a -> b: give y; }")
@example("agent a\nb -> c: give x;")
@example("a -> b: bundle B\u00a0;\na -> b: bundle C \u00b2if f\na -> b: bundle D $;")
@example("} bundle B { give x; a -> b: give y; }")
@example("a -> b: give x;\nc\r\n->\td :use y ;a->b:bundle C\na -> b: give x = $p;")
def test_statement_tokens_parse_like_the_token_path(text):
    """Each statement token builds the tree, with every offset, and the
    diagnostics that its tokens would."""
    statement, token_path = parse_both_ways(text)
    assert statement == token_path


# A header for statements: fixed types and a flag, then, for some of the
# statements' names, an agent, a type or flag, and a bundle of one of these
# bodies: parameters only, a named constant, a gated body, a use.
HEADER_KINDS = ["", "", "num", "str", "service", "flag"]
BUNDLE_BODIES = [
    "give zn = $p; give zs = $q;", "give zn = zc;", "give zn = $p if zf;", "use zs;"
]


@st.composite
def headers(draw) -> str:
    """Declarations of some of the names that ``statements()`` draws."""
    names = STATEMENT_NAMES[0]
    agents = draw(st.lists(st.sampled_from(names), unique=True))
    lines = [f"agent {', '.join(agents)};"] if agents else []
    lines += ["type zn: num;", "type zs: str;", "flag zf;"]
    for name in names:
        kind = draw(st.sampled_from(HEADER_KINDS))
        if kind == "flag":
            lines.append(f"flag {name};")
        elif kind:
            lines.append(f"type {name}: {kind};")
        if draw(st.booleans()):
            lines.append(f"bundle {name} {{ {draw(st.sampled_from(BUNDLE_BODIES))} }}")
    return "\n".join(lines) + "\n"


def resolved_facts(result) -> tuple:
    """A resolve result's graph, and each diagnostic with its offsets."""
    return result.graph, [
        (d.severity, d.code, d.message, d.span.start_offset, d.span.end_offset)
        for d in result.diagnostics
    ]


@settings(max_examples=300, deadline=None)
@given(headers(), st.lists(
    st.one_of(statements(), st.sampled_from(STATEMENT_CONTEXTS)), max_size=8
).map("".join))
@example(
    "agent a;\ntype t: num;\n", "a -> b: give t;\na -> a: give t;\nb -> a: give t;\nb -> a: bundle B\n"
)
@example("agent a, b;\n", "a -> b: give t;\nb -> a: give t;\na -> b: bundle B\n")
@example("agent a, b;\ntype t: num;\n", "a -> b: give t = $p;\nb -> a: give t = $p;\n" * 2)
@example(
    "agent a, b;\ntype t: num;\ntype s: str;\nbundle B { give t = c; }\n",
    "a -> b: bundle B\na -> b: give s = c;\nb -> a: bundle B\n",
)
@example(
    "agent a, b;\ntype w: num;\ntype s: str;\n",
    "b -> a: give w = o;\na -> b: give w = o;\na -> b: give s = o;\n",
)
@example(
    "agent a, b;\ntype t: num;\nflag f;\nbundle B { give t = $p if f; }\n",
    "a -> b: bundle B\na -> b: bundle B\nb -> a: bundle B\n",
)
def test_statement_tokens_resolve_like_their_nodes(header, text):
    """Resolving a parsed tree, which reads most statement tokens from their
    pieces, gives the graph and the diagnostics, with every offset, of the
    same tree rebuilt from its ``decls``, whose parts are all nodes."""
    ast = parse(header + text, "t.pml").ast
    tokens = resolve(ast)
    nodes = resolve(ModelAst(ast.decls, ast.file, ast.lines))
    assert resolved_facts(tokens) == resolved_facts(nodes)


DEFERRED = (PromiseDecl, BodyNode, BundleRef, IdentTerm, ParamTerm)


def test_statement_nodes_are_built_on_the_first_read_of_decls(monkeypatch):
    """``parse`` and ``resolve`` of a ring of 200 agents build the nodes of
    the bundle's two bodies and of the first occurrence of each of the
    three direct statement texts, which fills the resolver's memo, and no
    others: none for the 800 statement tokens after them.  The first read of
    ``decls`` builds all 800 declarations, and the second none.  The tree
    read equals the one the token path builds, and ``deepcopy`` and
    ``pickle`` round-trip the tree before and after the read."""
    built = dict.fromkeys(DEFERRED, 0)
    for cls in DEFERRED:
        def counted(self, *args, __init=cls.__init__, __cls=cls, **kwargs):
            built[__cls] += type(self) is __cls
            __init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def fresh() -> ModelAst:
        parsed = parse(ring_text(200), "ring.pml")
        assert parsed.ok and sum(type(part) is tuple for part in parsed.ast.parts) == 800
        return parsed.ast

    ast = fresh()
    assert resolve(ast).ok
    assert {cls.__name__: n for cls, n in built.items()} == {
        "PromiseDecl": 3, "BodyNode": 2 + 3, "BundleRef": 0, "IdentTerm": 3 + 3, "ParamTerm": 2 + 1,
    }
    built.update(dict.fromkeys(DEFERRED, 0))
    decls = ast.decls
    assert built[PromiseDecl] == 800 and built[BundleRef] == 200
    built.update(dict.fromkeys(DEFERRED, 0))
    assert ast.decls is decls and set(built.values()) == {0}

    saved, lexer_module._TOKEN = lexer_module._TOKEN, TOKEN_PATH
    try:
        token_path = parse(ring_text(200), "ring.pml").ast
    finally:
        lexer_module._TOKEN = saved
    assert not any(type(part) is tuple for part in token_path.parts)
    assert syntax(ast) == syntax(token_path)

    for read in (False, True):
        tree = fresh()
        if read:
            assert tree.decls == decls
        for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert copied == tree and syntax(copied) == syntax(ast)
            assert resolved_facts(resolve(copied)) == resolved_facts(resolve(tree))


def test_statement_tokens_are_made_where_a_declaration_starts():
    """The statement tests above reach statement tokens: after nothing, a
    ';', a '}' and another statement, and not inside a bundle body."""
    text = "a -> b: give x;\nbundle B { c -> d: use y; }\ne -> f: bundle B\ng -> h: use z;"
    tokens, diags = tokenize(text)
    assert diags == []
    assert [t[2] for t in tokens if t[0] == "statement"] == [
        "a -> b: give x;", "e -> f: bundle B", "g -> h: use z;"
    ]
    assert [t[0] for t in tokens].count("ident") == 4


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class TestParser:
    def test_full_model_parses_clean(self):
        result = parse(GEOMETRY, "g.pml")
        assert result.ok
        decls = result.ast.decls
        kinds = [type(d).__name__ for d in decls]
        assert kinds.count("AgentDecl") == 2
        assert kinds.count("TypeDecl") == 2
        assert kinds.count("BundleDecl") == 2
        assert kinds.count("PromiseDecl") == 1

    def test_missing_semicolon_is_reported_and_recovered(self):
        result = parse("agent a\nagent b;\n", "t.pml")
        assert not result.ok
        assert "E-PARSE-001" in errors_of(result.diagnostics)
        # recovery still sees the second declaration
        assert len(result.ast.decls) >= 1

    def test_unexpected_eof(self):
        result = parse("bundle B {", "t.pml")
        assert not result.ok
        codes = errors_of(result.diagnostics)
        assert "E-PARSE-002" in codes

    def test_error_recovery_collects_multiple_diagnostics(self):
        result = parse("agent ; type ; flag ok;\n", "t.pml")
        assert not result.ok
        assert len(errors_of(result.diagnostics)) >= 2

    @pytest.mark.parametrize(
        "body, found",
        [
            ("give w $y;", "expected ';', found parameter '$y'"),
            ("give w = 5 5;", "expected ';', found number '5'"),
            ('give t = "s" "t";', "expected ';', found string '\"t\"'"),
            ("give w if 3;", "expected '==' or '!=', found ';'"),
        ],
    )
    def test_unexpected_token_is_described(self, body, found):
        result = parse(f"agent a, b; type w: num; type t: str;\na -> b: {body}\n", "t.pml")
        assert [(d.code, d.message) for d in result.diagnostics] == [("E-PARSE-001", found)]

    def test_diagnostic_formatting(self):
        result = parse("agent a\nagent b;\n", "some/file.pml")
        line = result.diagnostics[0].formatted()
        assert line.startswith("some/file.pml:2:")
        assert "error[E-PARSE-001]" in line

    def test_conditions_parse_with_and_chains(self):
        text = (
            "agent a; agent b; type name: str; flag employee; type s: service;\n"
            "b -> a: give name;\n"
            "b -> a: give employee;\n"
            "a -> b: use s if name == owner and not employee;\n"
        )
        result = parse(text, "t.pml")
        assert result.ok

    def test_a_dotted_name_is_one_term(self):
        result = parse("a -> b: give x.y = 1 if x . y == z;\n", "t.pml")
        assert result.ok
        body = result.ast.decls[0].item
        lhs = body.condition.literals[0].lhs
        assert (body.subject.name, lhs.name) == ("x.y", "x.y")
        subject = result.ast.span(body.subject.start, body.subject.end)
        assert (subject.start_col, subject.end_col) == (14, 17)
        lhs_span = result.ast.span(lhs.start, lhs.end)
        assert (lhs_span.start_col, lhs_span.end_col) == (25, 30)
        assert print_model(result.ast) == "a -> b: give x.y = 1 if x.y == z;\n"

    def test_span_overlap_arithmetic(self):
        span = SourceSpan("f", 2, 5, LineIndex("ab cde f"))
        assert span.overlaps_offsets(4, 9)
        assert not span.overlaps_offsets(5, 9)
        assert not span.overlaps_offsets(0, 2)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class TestSourceSpan:
    # Newlines at offsets 2 and 6; "\r" and "\t" are one column each.
    LINES = LineIndex("ab\ncd\r\n\tx")

    def test_lines_and_columns_come_from_offsets(self):
        positions = [
            (s.start_line, s.start_col, s.end_line, s.end_col)
            for s in (SourceSpan("f", 0, 2, self.LINES), SourceSpan("f", 2, 3, self.LINES),
                      SourceSpan("f", 5, 9, self.LINES))
        ]
        # A line ends with its newline, so offset 2 is on line 1.
        assert positions == [(1, 1, 1, 3), (1, 3, 2, 1), (2, 3, 3, 3)]

    def test_merge_spans_the_outermost_offsets(self):
        left, right = SourceSpan("f", 1, 4, self.LINES), SourceSpan("f", 3, 8, self.LINES)
        merged = left.merge(right)
        assert merged == right.merge(left) == SourceSpan("f", 1, 8, self.LINES)
        assert merged.lines is self.LINES
        inner = SourceSpan("f", 2, 3, self.LINES)
        assert left.merge(inner) == left

    def test_span_must_not_end_before_it_starts(self):
        with pytest.raises(ValueError, match="must not end before it starts"):
            SourceSpan("f", 5, 4, self.LINES)
        empty = SourceSpan("f", 4, 4, self.LINES)
        assert (empty.start_line, empty.start_col) == (empty.end_line, empty.end_col)

    def test_resolver_falls_back_to_the_start_of_the_file(self, monkeypatch):
        def refuse(*args):
            raise PromiseModelError("refused")

        monkeypatch.setattr(resolver_module, "build_graph", refuse)
        result = resolve(parse("\n\nagent a;\n", "m.pml").ast)
        assert [d.formatted() for d in result.diagnostics] == [
            "m.pml:1:1: error[E-RESOLVE-005]: refused"
        ]
        span = result.diagnostics[0].span
        assert (span.start_offset, span.end_offset, span.end_line, span.end_col) == (0, 0, 1, 1)


# One model per site where the resolver reports a name, with the position of
# each diagnostic: (code, start line, start column, end line, end column).
POSITIONS = {
    "duplicate-agent-in-a-list": (
        "agent a, b,\n  a;\n", [("E-RESOLVE-005", 2, 3, 2, 4)]
    ),
    "duplicate-dotted-type": (
        "type x.y: num;\ntype x . # c\n y: str;\n", [("E-RESOLVE-005", 2, 6, 3, 3)]
    ),
    "duplicate-flag-and-bundle": (
        "flag f;\nflag  f;\nbundle B { }\nbundle   B { }\n",
        [("E-RESOLVE-005", 2, 7, 2, 8), ("E-RESOLVE-005", 4, 10, 4, 11)],
    ),
    "unknown-parent-and-bundle": (
        "agent a, b;\nbundle C extends  P { }\na -> b: bundle  Q\n",
        [("E-RESOLVE-003", 2, 19, 2, 20), ("E-RESOLVE-003", 3, 17, 3, 18)],
    ),
    "unknown-promiser-and-promisee": (
        "agent a;\ntype t: service;\nzz -> a: give t;\na ->  yy: give t;\nzz -> zz: give t;\n",
        [
            ("E-RESOLVE-001", 3, 1, 3, 3), ("E-RESOLVE-001", 4, 7, 4, 9),
            ("E-RESOLVE-001", 5, 1, 5, 3), ("E-RESOLVE-001", 5, 7, 5, 9),
        ],
    ),
    "positive-and-negated-flag-literal": (
        "agent a;\ntype t: service;\na -> a: use t if  p and not   q;\n",
        [("E-RESOLVE-002", 3, 19, 3, 20), ("E-RESOLVE-002", 3, 31, 3, 32)],
    ),
    "kind-conflict": (
        'agent a;\ntype n: num;\ntype s: str;\na -> a: give n = "x";\na -> a: use s if n == "y";\n',
        [("E-RESOLVE-008", 4, 9, 4, 22), ("E-RESOLVE-008", 5, 18, 5, 26)],
    ),
    "autonomy-at-the-first-of-two-equal-declarations": (
        "agent a, b;\nflag f;\ntype s: service;\na -> b:  use s if f;\na -> b: use s if f;\n",
        [("W-AUTONOMY-001", 4, 1, 4, 21)],
    ),
}


@pytest.mark.parametrize("name", POSITIONS)
def test_each_name_site_reports_its_own_position(name):
    text, expected = POSITIONS[name]
    result = resolve_text(text)
    assert [
        (d.code, d.span.start_line, d.span.start_col, d.span.end_line, d.span.end_col)
        for d in result.diagnostics
    ] == expected


# ---------------------------------------------------------------------------
# Printer round-trips
# ---------------------------------------------------------------------------

def normalize(text: str, path: str = "p.pml") -> str:
    result = parse(text, path)
    assert result.ok, [d.formatted() for d in result.diagnostics]
    return print_model(result.ast)


# Digit runs, and fractions whose leading zeros reach past where ``repr``
# switches a float to an exponent.
NUMBER_LITERALS = st.builds(
    lambda whole, zeros, fraction: (
        whole if fraction is None else f"{whole}.{'0' * zeros}{fraction}"
    ),
    st.from_regex(r"[0-9]{1,25}", fullmatch=True),
    st.integers(0, 30),
    st.none() | st.from_regex(r"[0-9]{1,20}", fullmatch=True),
)


# Gates over the flags, attributes, parameters and constants that
# ``GATE_MODEL`` declares or leaves free.  A comparison relates two num terms
# or two str terms, and each parameter and each named constant keeps one
# kind, so every gate resolves.  A string constant may hold any character: a
# carriage return, which ends a string raw, prints as its escape.
_NUM_TERMS = st.one_of(
    st.sampled_from([Attribute("n0"), Attribute("bank.balance"), Parameter("x"), Parameter("y")]),
    st.builds(NumConst, st.integers(0, 10**30) | st.floats(0, allow_infinity=False)),
    st.builds(NamedConst, st.sampled_from(["red", "k7"])),
)
_STR_TERMS = st.one_of(
    st.sampled_from([Attribute("s0"), Parameter("u")]),
    st.builds(StrConst, st.text()),
    st.builds(NamedConst, st.sampled_from(["blue", "k8"])),
)
_OPS = st.sampled_from(["eq", "neq"])
GATES = st.builds(
    lambda literals: Condition(frozenset(literals)),
    st.lists(
        st.one_of(
            st.builds(FlagLiteral, st.sampled_from(["f0", "f1"]), st.booleans()),
            st.builds(CmpLiteral, _NUM_TERMS, _OPS, _NUM_TERMS),
            st.builds(CmpLiteral, _STR_TERMS, _OPS, _STR_TERMS),
        ),
        min_size=1,
        max_size=5,
    ),
)
GATE_MODEL = (
    "agent a, b;\nflag f0; flag f1;\n"
    "type n0: num; type bank.balance: num; type s0: str; type svc: service;\n"
    "a -> b: give svc if {};\n"
)


class TestPrinterRoundTrip:
    @settings(max_examples=200)
    @given(GATES)
    @example(Condition.of(CmpLiteral(StrConst('a"\\\n\r\tb'), "neq", Attribute("s0"))))
    @example(Condition.of(CmpLiteral(NumConst(1e-07), "eq", NumConst(10**20))))
    def test_a_condition_text_reads_back_as_the_condition(self, condition):
        result = resolve_text(GATE_MODEL.format(condition.text))
        assert result.ok, [d.formatted() for d in result.diagnostics]
        (promise,) = result.graph.promises
        assert promise.body.condition == condition

    @pytest.mark.parametrize("name", corpus.names())
    def test_print_then_parse_is_a_fixpoint(self, name):
        printed = normalize(corpus.read(name), name)
        assert normalize(printed, name) == printed

    @pytest.mark.parametrize("name", corpus.names())
    def test_printed_form_resolves_to_the_same_graph(self, name):
        original = resolve_text(corpus.read(name))
        reprinted = resolve_text(normalize(corpus.read(name), name))
        assert original.graph == reprinted.graph

    @settings(max_examples=200)
    @given(NUMBER_LITERALS)
    @example("0.00001")
    @example("9007199254740993")
    @example("123456789012345678.5")
    def test_number_literals_print_back_to_the_same_value(self, literal):
        text = f"agent a, b;\ntype width: num;\na -> b: give width = {literal};\n"

        def value(source: str):
            (term,) = [t for t in tokenize(source)[0] if t[0] == "number"]
            return term[1]

        printed = normalize(text)
        assert normalize(printed) == printed
        expected = float(literal) if "." in literal else int(literal)
        assert value(printed) == value(text) == expected
        assert type(value(printed)) is type(value(text))

    def test_printing_normalizes_whitespace(self):
        messy = "agent   a;\n\n\nagent b;\ntype t:num;\na->b:   give t;\n"
        printed = normalize(messy)
        assert "   " not in printed
        assert normalize(printed) == printed

    @pytest.mark.parametrize("name", corpus.names())
    def test_the_reparsed_tree_equals_the_parsed_one(self, name):
        """Every position moves when a model is printed again, and positions
        are not compared, so the trees are equal and hash alike."""
        ast = parse(corpus.read(name), name).ast
        reparsed = parse(print_model(ast), name).ast
        assert reparsed == ast and hash(reparsed) == hash(ast)


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------

class TestResolver:
    def test_geometry_resolves(self):
        result = resolve_text(GEOMETRY)
        assert result.ok
        graph = result.graph
        assert [a.name for a in graph.agents] == ["rect", "viewer"]
        assert len(graph.promises) == 2  # width and height from the bundle

    def test_bundle_attachment_shares_one_group(self):
        result = resolve_text(GEOMETRY)
        groups = {p.group for p in result.graph.promises}
        assert groups == {"bundle:Rectangle"}

    def test_terms_resolve_to_their_model_classes(self):
        text = (
            "agent a; agent b;\n"
            "type w: num; type n: str;\n"
                        "a -> b: give w = $x;\n"
            "a -> b: give w = 4;\n"
            'a -> b: give n = "s";\n'
            "a -> b: give n = other;\n"
        )
        graph = resolve_text(text).graph
        rhs = {c.rhs if not isinstance(c.rhs, type(None)) else None
               for p in graph.promises for c in p.body.constraints}
        lhs = {c.lhs for p in graph.promises for c in p.body.constraints}
        everything = rhs | lhs
        assert NumConst(4) in everything
        assert StrConst("s") in everything
        assert NamedConst("other") in everything
        assert any(isinstance(t, Parameter) for t in everything)

    @pytest.mark.parametrize(
        "statements, reported",
        [
            # The repro: one named constant given as a num and as a str.
            ("a -> b: give w = owner;\na -> b: give s = owner;", [(6, 9)]),
            # One statement, through its comparison.
            ('a -> b: give w = owner if owner == "x";', [(5, 9)]),
            # Through a parameter, and through another named constant.
            ("a -> b: give w = $x if $x == owner;\na -> b: give s = owner;", [(6, 9)]),
            ("a -> b: give w = owner if owner == boss;\na -> b: give s = boss;", [(6, 9)]),
            # Through a bundle's parameter, across its bodies.
            ("bundle B { give w = $x; give $x = owner; }\na -> b: bundle B\n"
             "a -> b: give s = owner;", [(7, 9)]),
            # Each channel gives it a kind of its own.
            ("a -> b: give w = owner;\nb -> a: give s = owner;\na -> c: use s;", []),
            # Equal named constants clash with no kind; so do parameters
            # across two statements.
            ("a -> b: give w = owner;\na -> b: give w = boss;", []),
            ("a -> b: give w = $x if $x == owner;\na -> b: give s = $x;", []),
        ],
        ids=["repro", "one-statement", "parameter", "named", "bundle", "channels", "no-clash",
             "statement-scopes"],
    )
    def test_a_named_constant_takes_one_kind_per_channel(self, statements, reported):
        """E-RESOLVE-008 at the declaration that gives a named constant a
        second kind on its channel: its line and column."""
        text = f"agent a, b, c;\ntype w: num;\ntype s: str;\nflag f;\n{statements}\n"
        result = resolve(parse(text, "m.pml").ast)
        assert [(d.code, d.span.start_line, d.span.start_col) for d in result.diagnostics] == [
            ("E-RESOLVE-008", line, col) for line, col in reported
        ]
        assert result.ok == (not reported)

    def test_unknown_agent(self):
        result = resolve_text("agent a; type t: num;\nghost -> a: give t;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-001"]

    def test_unknown_type(self):
        result = resolve_text("agent a; agent b;\na -> b: give mystery;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-002"]

    def test_unknown_flag_in_condition(self):
        result = resolve_text(
            "agent a; agent b; type s: service;\na -> b: use s if ghost;\n"
        )
        assert "E-RESOLVE-002" in errors_of(result.diagnostics)

    def test_unknown_bundle(self):
        result = resolve_text("agent a; agent b;\na -> b: bundle Ghost;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-003"]

    def test_unknown_parent_bundle(self):
        result = resolve_text("agent a;\nbundle B extends Ghost { }\n")
        assert "E-RESOLVE-003" in errors_of(result.diagnostics)

    def test_inheritance_cycle(self):
        text = "bundle A extends B { }\nbundle B extends A { }\n"
        result = resolve_text(text)
        codes = errors_of(result.diagnostics)
        assert "E-RESOLVE-004" in codes
        message = next(
            d.message for d in result.diagnostics if d.code == "E-RESOLVE-004"
        )
        assert "->" in message
        assert [d.formatted() for d in result.diagnostics] == [
            "m.pml:1:8: error[E-RESOLVE-004]: bundle inheritance cycle: A -> B -> A"
        ]

    def test_cycle_is_reported_once_at_its_first_bundle(self):
        # X only leads into the cycle, and C is outside it: neither is blamed,
        # and attachments to either are not unknown bundles.
        text = (
            "agent a, b;\n"
            "type width: num;\n"
            "bundle X extends A { give width = 1; }\n"
            "bundle A extends B { give width = 2; }\n"
            "bundle B extends A { give width = 3; }\n"
            "bundle C { give width = 4; }\n"
            "a -> b: bundle C\n"
            "a -> b: bundle X\n"
        )
        result = resolve_text(text)
        assert not result.ok
        assert [d.formatted() for d in result.diagnostics] == [
            "m.pml:4:8: error[E-RESOLVE-004]: bundle inheritance cycle: A -> B -> A"
        ]

    def test_cycle_does_not_hide_errors_in_other_bundles(self):
        text = (
            "agent a, b;\n"
            "bundle A extends B { }\n"
            "bundle B extends A { }\n"
            "bundle C { give height = 4; }\n"
            "a -> b: bundle C\n"
        )
        result = resolve_text(text)
        assert [d.formatted() for d in result.diagnostics] == [
            "m.pml:2:8: error[E-RESOLVE-004]: bundle inheritance cycle: A -> B -> A",
            "m.pml:4:17: error[E-RESOLVE-002]: unknown type or flag 'height'",
        ]

    def test_duplicate_agent(self):
        result = resolve_text("agent a; agent a;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-005"]

    def test_duplicate_type(self):
        result = resolve_text("type t: num; type t: str;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-005"]

    def test_flag_and_type_share_a_namespace(self):
        result = resolve_text("type t: num; flag t;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-005"]

    def test_duplicate_bundle(self):
        result = resolve_text("bundle B { }\nbundle B { }\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-005"]

    def test_use_with_value_rejected(self):
        result = resolve_text(
            "agent a; agent b; type w: num;\na -> b: use w = 4;\n"
        )
        assert errors_of(result.diagnostics) == ["E-RESOLVE-006"]

    def test_value_on_service_rejected(self):
        result = resolve_text(
            "agent a; agent b; type s: service;\na -> b: give s = 4;\n"
        )
        assert errors_of(result.diagnostics) == ["E-RESOLVE-007"]

    def test_service_type_as_a_value_rejected(self):
        result = resolve_text(
            "agent a; agent b; type w: num; type svc: service;\na -> b: give w = svc;\n"
        )
        assert [d.formatted() for d in result.diagnostics] == [
            "m.pml:2:18: error[E-RESOLVE-007]: service type 'svc' carries no value"
        ]

    def test_use_link_body_rejected(self):
        result = resolve_text("agent a; agent b;\na -> b: use $w = $h;\n")
        assert errors_of(result.diagnostics) == ["E-RESOLVE-006"]

    def test_value_on_flag_rejected(self):
        result = resolve_text(
            "agent a; agent b; flag f;\na -> b: give f = 4;\n"
        )
        assert errors_of(result.diagnostics) == ["E-RESOLVE-007"]

    def test_kind_conflict_between_num_and_str(self):
        result = resolve_text(
            "agent a; agent b; type w: num;\n"
            'a -> b: give w = "both";\n'
        )
        assert "E-RESOLVE-008" in errors_of(result.diagnostics)

    def test_parameter_kind_conflict(self):
        result = resolve_text(
            "agent a; agent b; type w: num; type n: str;\n"
            "bundle B { give w = $x; give n = $x; }\n"
            "a -> b: bundle B\n"
        )
        assert "E-RESOLVE-008" in errors_of(result.diagnostics)

    @pytest.mark.parametrize(
        "bodies",
        [
            "give $x = $y; give w = $x; give s = $y;",
            "give w = $x; give $x = $y; give s = $y;",
            "give w = $x; give s = $y; give $x = $y;",
            "give s = $y; give $x = $y; give w = $x;",
        ],
    )
    def test_related_parameters_share_a_kind_in_any_order(self, bodies):
        result = resolve_text(
            "agent a, b; type w: num; type s: str;\n"
            f"bundle B {{ {bodies} }}\n"
            "a -> b: bundle B\n"
        )
        assert errors_of(result.diagnostics) == ["E-RESOLVE-008"]

    def test_a_condition_relates_parameters_for_its_body(self):
        result = resolve_text(
            "agent a, b; type w: num;\n"
            'a -> b: give w = $x if $x == $y and $y == "s";\n'
        )
        assert [d.message for d in result.diagnostics] == [
            "cannot relate a num value to a str value"
        ]

    def test_flag_used_as_value_rejected(self):
        result = resolve_text(
            "agent a; agent b; flag f; type w: num;\na -> b: give w = f;\n"
        )
        assert "E-RESOLVE-009" in errors_of(result.diagnostics)

    def test_non_flag_in_flag_position_rejected(self):
        result = resolve_text(
            "agent a; agent b; type w: num; type s: service;\n"
            "a -> b: use s if w;\n"
        )
        assert "E-RESOLVE-009" in errors_of(result.diagnostics)

    @pytest.mark.parametrize(
        "condition, diagnostic",
        [
            ("x.y", ("E-RESOLVE-009", "'x.y' is a num type, not a flag", 25, 28)),
            ("not x.y", ("E-RESOLVE-009", "'x.y' is a num type, not a flag", 29, 32)),
            ("not p . q", ("E-RESOLVE-002", "unknown flag 'p.q'", 29, 34)),
        ],
    )
    def test_a_flag_literal_reads_a_dotted_name(self, condition, diagnostic):
        """``not`` reads a dotted name as a bare flag literal does."""
        result = resolve_text(
            f"agent a, b;\ntype x.y: num;\na -> b: give x.y = 1 if {condition};\n"
        )
        assert [
            (d.code, d.message, d.span.start_col, d.span.end_col) for d in result.diagnostics
        ] == [diagnostic]

    def test_colliding_dotted_paths(self):
        result = resolve_text("type a.b: num; type asdf: num;\n")
        assert result.ok  # distinct names are fine
        result = resolve_text("type a.b: num;\ntype a.b: str;\n")
        assert "E-RESOLVE-005" in errors_of(result.diagnostics)

    def test_a_condition_compares_a_dotted_type(self):
        result = resolve_text(
            "agent a, b; type x.y: num; type w: num;\n"
            "b -> a: give x.y = 2;\n"
            "a -> b: give w = 1 if x . y == 2;\n"
        )
        assert result.ok and result.diagnostics == []
        gated = [p for p in result.graph.promises if p.promiser == "a"]
        assert [set(p.body.condition.literals) for p in gated] == [
            {CmpLiteral(Attribute("x.y"), "eq", NumConst(2))}
        ]

    def test_autonomy_warning_is_not_an_error(self):
        result = resolve_text(
            "agent a; agent b; flag f; type s: service;\n"
            "a -> b: use s if f;\n"
        )
        assert result.ok
        warnings = [d for d in result.diagnostics if d.severity == "warning"]
        assert [w.code for w in warnings] == ["W-AUTONOMY-001"]

    def test_attachment_condition_distributes_over_bundle_bodies(self):
        text = (
            "agent p; agent c; flag sub; type ping: service;\n"
            "bundle Api { give ping; }\n"
            "c -> p: give sub;\n"
            "p -> c: use sub;\n"
            "p -> c: bundle Api if sub\n"
        )
        graph = resolve_text(text).graph
        ping = [p for p in graph.promises if p.body.type == "ping"]
        assert len(ping) == 1
        assert not ping[0].body.condition.is_empty

    @pytest.mark.parametrize("n", [3, 12])
    def test_each_distinct_body_is_resolved_once(self, n, monkeypatch):
        """The two bundle bodies and the three distinct direct bodies are
        resolved once each, however many agents make them, and equal bodies
        in the graph are one object."""
        calls = []
        resolve_body = resolver_module._Resolver.resolve_body

        def counted(self, node, scope):
            calls.append(node)
            return resolve_body(self, node, scope)

        monkeypatch.setattr(resolver_module._Resolver, "resolve_body", counted)
        graph = resolve_text(ring_text(n)).graph
        assert len(calls) == 2 + 3
        assert len(graph.promises) == 5 * n
        assert len({p.body for p in graph.promises}) == 5
        assert len({id(p.body) for p in graph.promises}) == 5

    def test_a_direct_statement_is_resolved_once_per_text(self, monkeypatch):
        """The memo is keyed on a statement's text: the same body spelled
        three other ways is resolved once per spelling, and is still one
        body in the graph."""
        calls = []
        resolve_body = resolver_module._Resolver.resolve_body

        def counted(self, node, scope):
            calls.append(node)
            return resolve_body(self, node, scope)

        monkeypatch.setattr(resolver_module._Resolver, "resolve_body", counted)
        text = ring_text(4) + (
            "a0 -> a2: give  load = $x;\n"
            "a1 -> a3: give load = # why\n  $x;\n"
            "a2 -> a0: give\tload=$x ;\n"
            "a3 -> a1: give  load = $x;\n"
        )
        graph = resolve_text(text).graph
        assert len(calls) == 2 + 3 + 3
        loads = {p.body for p in graph.promises if p.group.startswith("body:")
                 and p.body.type == "load"}
        assert len(loads) == 1

    def test_a_roles_run_hashes_and_compares_no_value_in_python(self, tmp_path, monkeypatch):
        """``pml roles`` on a ring keys the resolver's memo on statement
        texts, which hash and compare in C: no ``Value.__hash__`` or
        ``Value.__eq__`` runs.  Keyed on syntax nodes, the memo made about
        1,400 of each in the same run."""
        (tmp_path / "ring.pml").write_text(ring_text(200), encoding="utf-8")
        calls = {"hash": 0, "eq": 0}
        value_hash, value_eq = Value.__hash__, Value.__eq__

        def counted_hash(self):
            calls["hash"] += 1
            return value_hash(self)

        def counted_eq(self, other):
            calls["eq"] += 1
            return value_eq(self, other)

        monkeypatch.setattr(Value, "__hash__", counted_hash)
        monkeypatch.setattr(Value, "__eq__", counted_eq)
        run = run_cli(tmp_path, ["roles", "ring.pml"])
        assert run["exit"] == 0 and run["stdout"]
        assert calls == {"hash": 0, "eq": 0}

    @pytest.mark.parametrize("command", ["check", "classes"])
    @pytest.mark.parametrize(
        "spelling", ["give  load=$x ;", "give load = # why\n  $x;", "give\tload =\n$x;"]
    )
    def test_a_statement_spelled_otherwise_gives_the_same_report(
        self, command, spelling, tmp_path
    ):
        """Respelling some of a ring's direct statements, with other spacing
        or a comment inside, leaves the JSON report byte-identical."""
        plain = ring_text(6)
        respelled = plain.replace("give load = $x;", spelling, 3)
        assert respelled != plain
        reports = []
        for name, text in (("plain", plain), ("respelled", respelled)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "ring.pml").write_text(text, encoding="utf-8")
            reports.append(run_cli(tmp_path / name, [command, "--json", "ring.pml"]))
        assert reports[0]["stdout"] and reports[0]["stderr"] == ""
        assert [r["exit"] for r in reports] == [reports[0]["exit"]] * 2
        assert reports[1]["stdout"] == reports[0]["stdout"]

    def test_a_library_built_tree_keys_each_body_on_its_node(self):
        """A tree built without a text has every offset 0, so every
        statement's text is empty: the node itself is the key, and two
        different bodies stay two promises."""
        decls = (
            AgentDecl(("a", "b")),
            TypeDecl("w", "num"),
            PromiseDecl("a", "b", BodyNode("give", IdentTerm("w"), NumberTerm(1))),
            PromiseDecl("a", "b", BodyNode("give", IdentTerm("w"), NumberTerm(2))),
            PromiseDecl("b", "a", BodyNode("give", IdentTerm("w"), NumberTerm(1))),
        )
        result = resolve(ModelAst(decls))
        assert result.ok
        assert [(p.promiser, set(p.body.constraints)) for p in result.graph.promises] == [
            ("a", {EqConstraint(Attribute("w"), NumConst(1))}),
            ("a", {EqConstraint(Attribute("w"), NumConst(2))}),
            ("b", {EqConstraint(Attribute("w"), NumConst(1))}),
        ]

    @pytest.mark.parametrize(
        "body, code",
        [
            ("use w = 1;", "E-RESOLVE-006"),
            ("give w = svc;", "E-RESOLVE-007"),
            ("give nosuch = 1;", "E-RESOLVE-002"),
        ],
    )
    def test_a_repeated_invalid_body_is_reported_at_each_declaration(self, body, code):
        """The same statement text, twice on one line and once more, draws
        one diagnostic per occurrence, each where that occurrence is."""
        text = (
            "agent a, b, c;\ntype w: num;\ntype svc: service;\n"
            f"a -> b: {body}\nb -> c:   {body} c -> a: {body}\n"
        )
        result = resolve_text(text)
        sites = [(d.code, d.span.start_line, d.span.start_col) for d in result.diagnostics]
        shift = sites[0][2] - 9  # where in the statement its diagnostic starts
        starts = (9, 11, 11 + len(body) + len(" c -> a: "))
        assert sites == [
            (code, line, start + shift) for line, start in zip((4, 5, 5), starts)
        ]

    def test_corpus_resolves_without_diagnostics(self):
        for name in corpus.names():
            result = resolve_text(corpus.read(name))
            assert result.ok, name
            assert result.diagnostics == [], name

    def test_a_clean_model_builds_no_span(self):
        """A span is built only for a diagnostic: parsing and resolving
        models that draw none calls no function that builds one."""
        builders = {make_span.__code__, SourceSpan.__new__.__code__, SourceSpan.merge.__code__}
        built = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in builders:
                built.append(frame.f_code.co_name)

        texts = [corpus.read(name) for name in corpus.names()] + [ring_text(20)]
        sys.setprofile(profile)
        try:
            results = [resolve(parse(text).ast) for text in texts]
        finally:
            sys.setprofile(None)
        assert [r.diagnostics for r in results] == [[] for _ in texts]
        assert built == []

    def test_the_front_end_leaves_the_collector_little_to_track(self):
        """Nodes keep their offsets as ints and their names as strings, so
        after ``parse`` and ``resolve`` of a ring of 400 agents, with both
        results alive, at most 10,438 new objects are tracked: half of the
        20,876 that a tree of ``SourceSpan`` and ``Name`` objects left."""
        text = ring_text(400)
        gc.collect()
        before = len(gc.get_objects())
        parsed = parse(text)
        resolved = resolve(parsed.ast)
        gc.collect()
        tracked = len(gc.get_objects()) - before
        assert parsed.ok and resolved.ok
        assert tracked <= 10_438
