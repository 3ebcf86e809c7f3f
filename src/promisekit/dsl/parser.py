"""Recursive-descent parser with panic-mode recovery.

Each declaration is parsed independently; on a syntax error the parser
records one diagnostic and resynchronizes at the next ``;`` or ``}`` (or the
start of an obvious new declaration), so a single broken statement does not
hide the rest of the file.
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
    Name,
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
        object.__setattr__(self, "ast", ast)
        object.__setattr__(self, "diagnostics", diagnostics)

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


def _describe(tok: Token) -> str:
    if tok.type == EOF:
        return "end of input"
    if tok.type == KEYWORD:
        return f"keyword '{tok.value}'"
    if tok.type == OP:
        return f"'{tok.value}'"
    if tok.type == IDENT:
        return f"identifier '{tok.value}'"
    if tok.type == PARAM:
        return f"parameter '${tok.value}'"
    return f"{tok.type} {tok.text!r}"


class Parser:
    def __init__(self, tokens: list[Token], file: str) -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.current: Token = tokens[0]
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> Token:
        tok = self.current
        if tok.type != EOF:
            self.pos += 1
            self.current = self.tokens[self.pos]
        return tok

    def _fail(self, expected: str) -> _ParseFailure:
        tok = self.current
        code = E_PARSE_EOF if tok.type == EOF else E_PARSE_UNEXPECTED
        return _ParseFailure(
            Diagnostic(ERROR, code, f"expected {expected}, found {_describe(tok)}", tok.span)
        )

    def expect_op(self, op: str) -> Token:
        tok = self.current
        if tok.type == OP and tok.value == op:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return tok
        raise self._fail(f"'{op}'")

    def expect_ident(self, what: str = "an identifier") -> Name:
        tok = self.current
        if tok.type == IDENT:
            self.pos += 1
            self.current = self.tokens[self.pos]
            return Name(tok.value, tok.span)
        raise self._fail(what)

    def expect_dotted(self, what: str = "an identifier") -> tuple[str, SourceSpan]:
        """Identifiers joined by '.', such as ``bank.balance``, as one name
        and the span that covers them."""
        tok = self.current
        if tok.type != IDENT:
            raise self._fail(what)
        self.advance()
        if not self.current.is_op("."):
            return tok.value, tok.span
        parts = [tok.value]
        while self.current.is_op("."):
            self.advance()
            segment = self.expect_ident("a path segment")
            parts.append(segment.text)
        return ".".join(parts), tok.span.merge(segment.span)

    # -- recovery -----------------------------------------------------------

    def _sync(self, starters: frozenset[str]) -> None:
        while self.current.type != EOF:
            tok = self.current
            if tok.is_op(";"):
                self.advance()
                return
            if tok.is_op("}"):
                return
            if tok.type == KEYWORD and tok.value in starters:
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
        while self.current.type != EOF:
            if self.current.is_op("}"):
                self.diagnostics.append(
                    Diagnostic(
                        ERROR, E_PARSE_UNEXPECTED, "unmatched '}'", self.current.span
                    )
                )
                self.advance()
                continue
            self._recover(self.parse_decl, _TOP_STARTERS, decls)
        return ModelAst(tuple(decls), self.file)

    def parse_decl(self) -> Decl:
        tok = self.current
        if tok.type == IDENT:
            return self.parse_promise()
        if tok.is_kw("agent"):
            return self.parse_agent()
        if tok.is_kw("type"):
            return self.parse_type()
        if tok.is_kw("flag"):
            return self.parse_flag()
        if tok.is_kw("bundle"):
            return self.parse_bundle_decl()
        raise self._fail("a declaration")

    def parse_agent(self) -> AgentDecl:
        start = self.advance()
        names = [self.expect_ident("an agent name")]
        while self.current.is_op(","):
            self.advance()
            names.append(self.expect_ident("an agent name"))
        end = self.expect_op(";")
        return AgentDecl(tuple(names), start.span.merge(end.span))

    def parse_type(self) -> TypeDecl:
        start = self.advance()
        name = Name(*self.expect_dotted("a type name"))
        self.expect_op(":")
        kind_tok = self.current
        if kind_tok.type == KEYWORD and kind_tok.value in ("num", "str", "service"):
            self.advance()
        else:
            raise self._fail("'num', 'str', or 'service'")
        end = self.expect_op(";")
        return TypeDecl(name, kind_tok.value, start.span.merge(end.span))

    def parse_flag(self) -> FlagDecl:
        start = self.advance()
        name = self.expect_ident("a flag name")
        end = self.expect_op(";")
        return FlagDecl(name, start.span.merge(end.span))

    def parse_bundle_decl(self) -> BundleDecl:
        start = self.advance()
        name = self.expect_ident("a bundle name")
        parent = None
        if self.current.is_kw("extends"):
            self.advance()
            parent = self.expect_ident("a parent bundle name")
        self.expect_op("{")
        bodies: list[BodyNode] = []
        while not self.current.is_op("}") and self.current.type != EOF:
            self._recover(self.parse_body, _BODY_STARTERS, bodies)
        end = self.expect_op("}")
        return BundleDecl(name, parent, tuple(bodies), start.span.merge(end.span))

    def parse_body(self) -> BodyNode:
        tok = self.current
        if tok.is_kw("give") or tok.is_kw("use"):
            start = self.advance()
        else:
            raise self._fail("'give' or 'use'")
        subject: IdentTerm | ParamTerm
        value: TermNode | None = None
        if self.current.type == PARAM:
            ptok = self.advance()
            subject = ParamTerm(ptok.value, ptok.span)
            self.expect_op("=")
            value = self.parse_term()
        elif self.current.type == IDENT:
            subject = IdentTerm(*self.expect_dotted())
            if self.current.is_op("="):
                self.advance()
                value = self.parse_term()
        else:
            raise self._fail("a type name or parameter")
        condition = None
        if self.current.is_kw("if"):
            self.advance()
            condition = self.parse_condition()
        end = self.expect_op(";")
        return BodyNode(start.value, subject, value, condition, start.span.merge(end.span))

    def parse_promise(self) -> PromiseDecl:
        promiser = self.expect_ident("an agent name")
        self.expect_op("->")
        promisee = self.expect_ident("an agent name")
        self.expect_op(":")
        if self.current.is_kw("bundle"):
            ref_start = self.advance()
            name = self.expect_ident("a bundle name")
            condition = None
            end_span = name.span
            if self.current.is_kw("if"):
                self.advance()
                condition = self.parse_condition()
                end_span = condition.span
            # The attachment form carries no ';' of its own; accept one anyway.
            if self.current.is_op(";"):
                end_span = self.advance().span
            item: BodyNode | BundleRef = BundleRef(
                name, condition, ref_start.span.merge(end_span)
            )
        else:
            item = self.parse_body()
        return PromiseDecl(promiser, promisee, item, promiser.span.merge(item.span))

    def parse_condition(self) -> ConditionNode:
        literals = [self.parse_literal()]
        while self.current.is_kw("and"):
            self.advance()
            literals.append(self.parse_literal())
        span = literals[0].span.merge(literals[-1].span)
        return ConditionNode(tuple(literals), span)

    def parse_literal(self) -> CmpLiteralNode | FlagLiteralNode:
        if self.current.is_kw("not"):
            start = self.advance()
            name = self.expect_ident("a flag name")
            return FlagLiteralNode(name, True, start.span.merge(name.span))
        lhs = self.parse_term()
        if self.current.type == OP and self.current.value in ("==", "!="):
            op = self.advance().value
            rhs = self.parse_term()
            return CmpLiteralNode(lhs, op, rhs, lhs.span.merge(rhs.span))
        if isinstance(lhs, IdentTerm):
            return FlagLiteralNode(Name(lhs.name, lhs.span), False, lhs.span)
        raise self._fail("'==' or '!='")

    def parse_term(self) -> TermNode:
        tok = self.current
        if tok.type == IDENT:
            return IdentTerm(*self.expect_dotted())
        if tok.type == PARAM:
            self.advance()
            return ParamTerm(tok.value, tok.span)
        if tok.type == NUMBER:
            self.advance()
            assert isinstance(tok.value, (int, float))
            return NumberTerm(tok.value, tok.span)
        if tok.type == STRING:
            self.advance()
            return StringTerm(tok.value, tok.span)
        raise self._fail("a term")


def parse(text: str, file: str = "<model>") -> ParseResult:
    """Tokenize and parse; always returns a (possibly partial) tree together
    with every diagnostic found along the way."""
    tokens, lex_diagnostics = tokenize(text, file)
    parser = Parser(tokens, file)
    ast = parser.parse_model()
    diagnostics = sorted(lex_diagnostics + parser.diagnostics, key=diagnostic_sort_key)
    return ParseResult(ast, diagnostics)
