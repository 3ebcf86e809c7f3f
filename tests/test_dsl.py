"""Surface language: lexing, parsing, printing, and name resolution."""
from __future__ import annotations

import gc
import random
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
from promisekit.errors import PromiseModelError
from promisekit.model import (
    Attribute,
    CmpLiteral,
    Condition,
    FlagLiteral,
    NamedConst,
    NumConst,
    Parameter,
    StrConst,
)

from bruteforce import reference_tokenize

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

    def match(self, text, pos=0):
        m = self.pattern.match(text, pos)
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
        """A text with no numeral run is read by one ``split`` and no
        ``match``."""
        text = ring_text(20) if name == "ring" else corpus.read(name)
        counting = CountingPattern(lexer_module._TOKEN)
        monkeypatch.setattr(lexer_module, "_TOKEN", counting)
        tokens, diags = tokenize(text)
        assert diags == [] and len(tokens) > 50
        assert (counting.splits, counting.matches) == (1, 0)

    def test_tokens_are_left_to_the_collector_untracked(self):
        """A token is a tuple of atoms, which a collection stops tracking, and
        a text that lexes cleanly makes no span at all."""
        text = ring_text(20) + 'type s: str;\na0 -> a1: give s = "x";\na1 -> a2: give load = 2.5;\n'

        def spans() -> int:
            return sum(type(o) is SourceSpan for o in gc.get_objects())

        gc.collect()
        before = spans()
        tokens, diags = tokenize(text)
        assert diags == [] and spans() == before
        gc.collect()
        assert {t[0] for t in tokens} == {
            "keyword", "ident", "op", "param", "number", "string", "eof"
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
    lines = LineIndex(text)
    assert [
        (type_, value, type(value), raw, place(make_span("t.pml", start, end, lines)))
        for type_, value, raw, start, end in tokens
    ] == [
        (type_, value, type(value), raw, where) for type_, value, raw, where in expected_tokens
    ]
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
# or two str terms, and each parameter keeps one kind, so every gate
# resolves.  A string constant may hold any character: a carriage return,
# which ends a string raw, prints as its escape.
_NAMED = st.builds(NamedConst, st.sampled_from(["red", "blue", "k7"]))
_NUM_TERMS = st.one_of(
    st.sampled_from([Attribute("n0"), Attribute("bank.balance"), Parameter("x"), Parameter("y")]),
    st.builds(NumConst, st.integers(0, 10**30) | st.floats(0, allow_infinity=False)),
    _NAMED,
)
_STR_TERMS = st.one_of(
    st.sampled_from([Attribute("s0"), Parameter("u")]),
    st.builds(StrConst, st.text()),
    _NAMED,
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

    @pytest.mark.parametrize(
        "body, code",
        [("use w = 1;", "E-RESOLVE-006"), ("give w = svc;", "E-RESOLVE-007")],
    )
    def test_a_repeated_invalid_body_is_reported_at_each_declaration(self, body, code):
        text = (
            "agent a, b, c;\ntype w: num;\ntype svc: service;\n"
            f"a -> b: {body}\nb -> c: {body}\n"
        )
        result = resolve_text(text)
        assert [(d.code, d.span.start_line) for d in result.diagnostics] == [
            (code, 4), (code, 5)
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
