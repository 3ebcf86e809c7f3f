"""Recursive-descent parser with panic-mode recovery.

Each declaration is parsed independently; on a syntax error the parser
records one diagnostic and resynchronizes at the next ``;`` or ``}`` (or the
start of an obvious new declaration), so a single broken statement does not
hide the rest of the file.

The parser reads the lexer's plain-tuple tokens by index.  Each syntax node
keeps the offsets of its first and last token, and of any name inside it
whose position a diagnostic may need, as plain ints; names are strings.  A
``SourceSpan`` is built only for a syntax diagnostic.  The tree keeps the
text's one ``LineIndex``, which the lexer's spans share, so that a later
diagnostic can build a span from two offsets (``ModelAst.span``).
"""
from __future__ import annotations

from typing import Callable

from ..value import Value
from .ast_nodes import (
    AgentDecl,
    BodyNode,
    BundleDecl,
    BundleRef,
    CmpLiteralNode,
    ConditionNode,
    Decl,
    FlagDecl,
    FlagLiteralNode,
    IdentTerm,
    ModelAst,
    NumberTerm,
    ParamTerm,
    PromiseDecl,
    StringTerm,
    TermNode,
    TypeDecl,
)
from .diagnostics import (
    Diagnostic,
    diagnostic_sort_key,
    E_PARSE_EOF,
    E_PARSE_UNEXPECTED,
    ERROR,
    has_errors,
    LineIndex,
    make_span,
    SourceSpan,
)
from .lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, STRING, Token, tokenize

_TOP_STARTERS = frozenset({"agent", "type", "flag", "bundle"})
_BODY_STARTERS = frozenset({"give", "use"})


class _ParseFailure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class ParseResult(Value):
    __slots__ = ("ast", "diagnostics")

    def __init__(self, ast: ModelAst, diagnostics: list[Diagnostic]) -> None:
        set_ast, set_diagnostics = self._setters
        set_ast(self, ast)
        set_diagnostics(self, diagnostics)

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


def _describe(tok: Token) -> str:
    kind, value, text, _, _ = tok
    if kind == EOF:
        return "end of input"
    if kind == KEYWORD:
        return f"keyword '{value}'"
    if kind == OP:
        return f"'{value}'"
    if kind == IDENT:
        return f"identifier '{value}'"
    if kind == PARAM:
        return f"parameter '${value}'"
    return f"{kind} {text!r}"


class Parser:
    """Reads ``(type, value, text, start, end)`` tokens.  A keyword or an
    operator is told by its text alone (``tok[2] == ";"``): keywords are
    reserved, and no other token's text spells one."""

    def __init__(self, tokens: list[Token], file: str, lines: LineIndex) -> None:
        self.tokens = tokens
        self.file = file
        self.lines = lines
        self.pos = 0
        self.current: Token = tokens[0]
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> Token:
        tok = self.current
        if tok[0] != EOF:
            self.pos += 1
            self.current = self.tokens[self.pos]
        return tok

    def last_end(self) -> int:
        """The end offset of the last token read."""
        return self.tokens[self.pos - 1][4]

    def current_span(self) -> SourceSpan:
        tok = self.current
        return make_span(self.file, tok[3], tok[4], self.lines)

    def _fail(self, expected: str) -> _ParseFailure:
        tok = self.current
        code = E_PARSE_EOF if tok[0] == EOF else E_PARSE_UNEXPECTED
        return _ParseFailure(
            Diagnostic(
                ERROR, code, f"expected {expected}, found {_describe(tok)}", self.current_span()
            )
        )

    def expect_op(self, op: str) -> None:
        if self.current[2] == op:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return
        raise self._fail(f"'{op}'")

    def expect_ident(self, what: str = "an identifier") -> str:
        tok = self.current
        if tok[0] == IDENT:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return tok[1]
        raise self._fail(what)

    def expect_dotted(self, what: str = "an identifier") -> tuple[str, int, int]:
        """Identifiers joined by '.', such as ``bank.balance``, as one name
        with the start and end offsets that cover them."""
        tok = self.current
        if tok[0] != IDENT:
            raise self._fail(what)
        self.advance()
        if self.current[2] != ".":
            return tok[1], tok[3], tok[4]
        parts = [tok[1]]
        while self.current[2] == ".":
            self.advance()
            parts.append(self.expect_ident("a path segment"))
        return ".".join(parts), tok[3], self.last_end()

    # -- recovery -----------------------------------------------------------

    def _sync(self, starters: frozenset[str]) -> None:
        while self.current[0] != EOF:
            tok = self.current
            if tok[2] == ";":
                self.advance()
                return
            if tok[2] == "}":
                return
            if tok[0] == KEYWORD and tok[1] in starters:
                return
            self.advance()

    def _recover(self, parse: Callable, starters: frozenset[str], into: list) -> None:
        """Append what ``parse`` returns to ``into``; on a syntax error, record
        it and resynchronize, moving at least one token past where it began."""
        start = self.pos
        try:
            into.append(parse())
        except _ParseFailure as failure:
            self.diagnostics.append(failure.diagnostic)
            self._sync(starters)
            if self.pos == start:
                self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_model(self) -> ModelAst:
        decls: list[Decl] = []
        while self.current[0] != EOF:
            if self.current[2] == "}":
                self.diagnostics.append(
                    Diagnostic(ERROR, E_PARSE_UNEXPECTED, "unmatched '}'", self.current_span())
                )
                self.advance()
                continue
            self._recover(self.parse_decl, _TOP_STARTERS, decls)
        return ModelAst(tuple(decls), self.file, self.lines)

    def parse_decl(self) -> Decl:
        tok = self.current
        if tok[0] == IDENT:
            return self.parse_promise()
        text = tok[2]
        if text == "agent":
            return self.parse_agent()
        if text == "type":
            return self.parse_type()
        if text == "flag":
            return self.parse_flag()
        if text == "bundle":
            return self.parse_bundle_decl()
        raise self._fail("a declaration")

    def parse_agent(self) -> AgentDecl:
        start = self.advance()[3]
        starts = [self.current[3]]
        names = [self.expect_ident("an agent name")]
        while self.current[2] == ",":
            self.advance()
            starts.append(self.current[3])
            names.append(self.expect_ident("an agent name"))
        self.expect_op(";")
        return AgentDecl(tuple(names), start, self.last_end(), tuple(starts))

    def parse_type(self) -> TypeDecl:
        start = self.advance()[3]
        name, name_start, name_end = self.expect_dotted("a type name")
        self.expect_op(":")
        kind_tok = self.current
        if kind_tok[0] == KEYWORD and kind_tok[1] in ("num", "str", "service"):
            self.advance()
        else:
            raise self._fail("'num', 'str', or 'service'")
        self.expect_op(";")
        return TypeDecl(name, kind_tok[1], start, self.last_end(), name_start, name_end)

    def parse_flag(self) -> FlagDecl:
        start = self.advance()[3]
        name_start = self.current[3]
        name = self.expect_ident("a flag name")
        self.expect_op(";")
        return FlagDecl(name, start, self.last_end(), name_start)

    def parse_bundle_decl(self) -> BundleDecl:
        start = self.advance()[3]
        name_start = self.current[3]
        name = self.expect_ident("a bundle name")
        parent = None
        parent_start = 0
        if self.current[2] == "extends":
            self.advance()
            parent_start = self.current[3]
            parent = self.expect_ident("a parent bundle name")
        self.expect_op("{")
        bodies: list[BodyNode] = []
        while self.current[2] != "}" and self.current[0] != EOF:
            self._recover(self.parse_body, _BODY_STARTERS, bodies)
        self.expect_op("}")
        return BundleDecl(
            name, parent, tuple(bodies), start, self.last_end(), name_start, parent_start
        )

    def parse_body(self) -> BodyNode:
        tok = self.current
        if tok[2] == "give" or tok[2] == "use":
            self.advance()
        else:
            raise self._fail("'give' or 'use'")
        subject: IdentTerm | ParamTerm
        value: TermNode | None = None
        kind = self.current[0]
        if kind == PARAM:
            ptok = self.advance()
            subject = ParamTerm(ptok[1], ptok[3], ptok[4])
            self.expect_op("=")
            value = self.parse_term()
        elif kind == IDENT:
            subject = IdentTerm(*self.expect_dotted())
            if self.current[2] == "=":
                self.advance()
                value = self.parse_term()
        else:
            raise self._fail("a type name or parameter")
        condition = None
        if self.current[2] == "if":
            self.advance()
            condition = self.parse_condition()
        self.expect_op(";")
        return BodyNode(tok[1], subject, value, condition, tok[3], self.last_end())

    def parse_promise(self) -> PromiseDecl:
        start = self.current[3]
        promiser = self.expect_ident("an agent name")
        self.expect_op("->")
        promisee_start = self.current[3]
        promisee = self.expect_ident("an agent name")
        self.expect_op(":")
        if self.current[2] == "bundle":
            ref_start = self.advance()[3]
            name_start = self.current[3]
            name = self.expect_ident("a bundle name")
            condition = None
            if self.current[2] == "if":
                self.advance()
                condition = self.parse_condition()
            # The attachment form carries no ';' of its own; accept one anyway.
            if self.current[2] == ";":
                self.advance()
            item: BodyNode | BundleRef = BundleRef(
                name, condition, ref_start, self.last_end(), name_start
            )
        else:
            item = self.parse_body()
        return PromiseDecl(promiser, promisee, item, start, self.last_end(), promisee_start)

    def parse_condition(self) -> ConditionNode:
        start = self.current[3]
        literals = [self.parse_literal()]
        while self.current[2] == "and":
            self.advance()
            literals.append(self.parse_literal())
        return ConditionNode(tuple(literals), start, self.last_end())

    def parse_literal(self) -> CmpLiteralNode | FlagLiteralNode:
        if self.current[2] == "not":
            start = self.advance()[3]
            name, name_start, end = self.expect_dotted("a flag name")
            return FlagLiteralNode(name, True, start, end, name_start)
        start = self.current[3]
        lhs = self.parse_term()
        op = self.current[2]
        if op == "==" or op == "!=":
            self.advance()
            rhs = self.parse_term()
            return CmpLiteralNode(lhs, op, rhs, start, self.last_end())
        if isinstance(lhs, IdentTerm):
            return FlagLiteralNode(lhs.name, False, start, lhs.end, start)
        raise self._fail("'==' or '!='")

    def parse_term(self) -> TermNode:
        tok = self.current
        kind = tok[0]
        if kind == IDENT:
            return IdentTerm(*self.expect_dotted())
        if kind == PARAM:
            self.advance()
            return ParamTerm(tok[1], tok[3], tok[4])
        if kind == NUMBER:
            self.advance()
            assert isinstance(tok[1], (int, float))
            return NumberTerm(tok[1], tok[3], tok[4])
        if kind == STRING:
            self.advance()
            return StringTerm(tok[1], tok[3], tok[4])
        raise self._fail("a term")


def parse(text: str, file: str = "<model>") -> ParseResult:
    """Tokenize and parse; always returns a (possibly partial) tree together
    with every diagnostic found along the way."""
    lines = LineIndex(text)
    tokens, lex_diagnostics = tokenize(text, file, lines)
    parser = Parser(tokens, file, lines)
    ast = parser.parse_model()
    diagnostics = sorted(lex_diagnostics + parser.diagnostics, key=diagnostic_sort_key)
    return ParseResult(ast, diagnostics)
