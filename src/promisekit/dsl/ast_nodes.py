"""Syntax tree for the modeling language.

A node keeps where it was read as hidden ``int`` fields: ``start`` and
``end`` are the character offsets of its first and last token, half-open as
in a ``SourceSpan``.  A name in a node is a plain ``str``.  Where a
diagnostic needs the position of a name that the node's offsets do not give,
the node keeps that name's start offset too (``name_start``,
``promisee_start``, ...); a name of one identifier ends ``len(name)`` past
its start.  Nodes hold no ``SourceSpan``: ``ModelAst.span`` builds one from
two offsets, against the text's one ``LineIndex``, when a diagnostic needs
it.

Nodes compare structurally with positions excluded, so
``parse(print(ast))`` round-trips to an equal tree even though every offset
moved.

A tree that ``parse`` made keeps each simple promise statement as the
lexer's statement token, and builds its nodes (``statement_decl``) only when
``ModelAst.decls`` is first read.
"""
from __future__ import annotations

from typing import Union

from ..value import Value
from .diagnostics import LineIndex, make_span, SourceSpan
from .lexer import Pieces, Token


class IdentTerm(Value, hidden=("start", "end")):
    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: int = 0, end: int = 0) -> None:
        set_name, set_start, set_end = self._setters
        set_name(self, name)
        set_start(self, start)
        set_end(self, end)


class ParamTerm(Value, hidden=("start", "end")):
    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: int = 0, end: int = 0) -> None:
        set_name, set_start, set_end = self._setters
        set_name(self, name)
        set_start(self, start)
        set_end(self, end)


class NumberTerm(Value, hidden=("start", "end")):
    __slots__ = ("value", "start", "end")

    def __init__(self, value: Union[int, float], start: int = 0, end: int = 0) -> None:
        set_value, set_start, set_end = self._setters
        set_value(self, value)
        set_start(self, start)
        set_end(self, end)


class StringTerm(Value, hidden=("start", "end")):
    __slots__ = ("value", "start", "end")

    def __init__(self, value: str, start: int = 0, end: int = 0) -> None:
        set_value, set_start, set_end = self._setters
        set_value(self, value)
        set_start(self, start)
        set_end(self, end)


TermNode = Union[IdentTerm, ParamTerm, NumberTerm, StringTerm]


class CmpLiteralNode(Value, hidden=("start", "end")):
    __slots__ = ("lhs", "op", "rhs", "start", "end")

    def __init__(
        self, lhs: TermNode, op: str, rhs: TermNode, start: int = 0, end: int = 0
    ) -> None:
        set_lhs, set_op, set_rhs, set_start, set_end = self._setters
        set_lhs(self, lhs)
        set_op(self, op)  # "==" or "!="
        set_rhs(self, rhs)
        set_start(self, start)
        set_end(self, end)


class FlagLiteralNode(Value, hidden=("start", "end", "name_start")):
    """``name`` or ``not name``; the name ends where the literal does."""

    __slots__ = ("name", "negated", "start", "end", "name_start")

    def __init__(
        self,
        name: str,
        negated: bool = False,
        start: int = 0,
        end: int = 0,
        name_start: int = 0,
    ) -> None:
        set_name, set_negated, set_start, set_end, set_name_start = self._setters
        set_name(self, name)
        set_negated(self, negated)
        set_start(self, start)
        set_end(self, end)
        set_name_start(self, name_start)


LiteralNode = Union[CmpLiteralNode, FlagLiteralNode]


class ConditionNode(Value, hidden=("start", "end")):
    __slots__ = ("literals", "start", "end")

    def __init__(self, literals: tuple[LiteralNode, ...], start: int = 0, end: int = 0) -> None:
        set_literals, set_start, set_end = self._setters
        set_literals(self, literals)
        set_start(self, start)
        set_end(self, end)


class BodyNode(Value, hidden=("start", "end")):
    """``give``/``use`` + subject (type name or parameter) + optional value."""

    __slots__ = ("polarity", "subject", "value", "condition", "start", "end")

    def __init__(
        self,
        polarity: str,  # "give" or "use"
        subject: Union[IdentTerm, ParamTerm],
        value: Union[TermNode, None] = None,
        condition: Union[ConditionNode, None] = None,
        start: int = 0,
        end: int = 0,
    ) -> None:
        set_polarity, set_subject, set_value, set_condition, set_start, set_end = self._setters
        set_polarity(self, polarity)
        set_subject(self, subject)
        set_value(self, value)
        set_condition(self, condition)
        set_start(self, start)
        set_end(self, end)


class AgentDecl(Value, hidden=("start", "end", "name_starts")):
    """``agent a, b;``: ``name_starts`` holds where each name starts, and is
    all zeros when not given."""

    __slots__ = ("names", "start", "end", "name_starts")

    def __init__(
        self,
        names: tuple[str, ...],
        start: int = 0,
        end: int = 0,
        name_starts: Union[tuple[int, ...], None] = None,
    ) -> None:
        set_names, set_start, set_end, set_name_starts = self._setters
        set_names(self, names)
        set_start(self, start)
        set_end(self, end)
        set_name_starts(self, (0,) * len(names) if name_starts is None else name_starts)


class TypeDecl(Value, hidden=("start", "end", "name_start", "name_end")):
    """``type name: kind;``.  A dotted name such as ``bank.balance`` is one
    name, and may span comments and line ends, so its end is kept too."""

    __slots__ = ("name", "kind", "start", "end", "name_start", "name_end")

    def __init__(
        self,
        name: str,
        kind: str,  # "num" | "str" | "service"
        start: int = 0,
        end: int = 0,
        name_start: int = 0,
        name_end: int = 0,
    ) -> None:
        set_name, set_kind, set_start, set_end, set_name_start, set_name_end = self._setters
        set_name(self, name)
        set_kind(self, kind)
        set_start(self, start)
        set_end(self, end)
        set_name_start(self, name_start)
        set_name_end(self, name_end)


class FlagDecl(Value, hidden=("start", "end", "name_start")):
    __slots__ = ("name", "start", "end", "name_start")

    def __init__(self, name: str, start: int = 0, end: int = 0, name_start: int = 0) -> None:
        set_name, set_start, set_end, set_name_start = self._setters
        set_name(self, name)
        set_start(self, start)
        set_end(self, end)
        set_name_start(self, name_start)


class BundleDecl(Value, hidden=("start", "end", "name_start", "parent_start")):
    __slots__ = ("name", "parent", "bodies", "start", "end", "name_start", "parent_start")

    def __init__(
        self,
        name: str,
        parent: Union[str, None],
        bodies: tuple[BodyNode, ...],
        start: int = 0,
        end: int = 0,
        name_start: int = 0,
        parent_start: int = 0,
    ) -> None:
        (
            set_name, set_parent, set_bodies, set_start, set_end, set_name_start, set_parent_start,
        ) = self._setters
        set_name(self, name)
        set_parent(self, parent)
        set_bodies(self, bodies)
        set_start(self, start)
        set_end(self, end)
        set_name_start(self, name_start)
        set_parent_start(self, parent_start)


class BundleRef(Value, hidden=("start", "end", "name_start")):
    __slots__ = ("name", "condition", "start", "end", "name_start")

    def __init__(
        self,
        name: str,
        condition: Union[ConditionNode, None] = None,
        start: int = 0,
        end: int = 0,
        name_start: int = 0,
    ) -> None:
        set_name, set_condition, set_start, set_end, set_name_start = self._setters
        set_name(self, name)
        set_condition(self, condition)
        set_start(self, start)
        set_end(self, end)
        set_name_start(self, name_start)


class PromiseDecl(Value, hidden=("start", "end", "promisee_start")):
    """``promiser -> promisee: item``; the promiser starts where the
    declaration does."""

    __slots__ = ("promiser", "promisee", "item", "start", "end", "promisee_start")

    def __init__(
        self,
        promiser: str,
        promisee: str,
        item: Union[BodyNode, BundleRef],
        start: int = 0,
        end: int = 0,
        promisee_start: int = 0,
    ) -> None:
        set_promiser, set_promisee, set_item, set_start, set_end, set_promisee_start = self._setters
        set_promiser(self, promiser)
        set_promisee(self, promisee)
        set_item(self, item)
        set_start(self, start)
        set_end(self, end)
        set_promisee_start(self, promisee_start)


Decl = Union[AgentDecl, TypeDecl, FlagDecl, BundleDecl, PromiseDecl]


def statement_decl(tok: Token) -> PromiseDecl:
    """The declaration of a statement token, built with the nodes and
    offsets that the parser gives the same statement read token by
    token."""
    pieces: Pieces = tok[1]  # type: ignore[assignment]
    (promiser, promisee, promisee_at, keyword, keyword_at, name, name_at, value,
     value_at) = pieces
    start, end = tok[3], tok[4]
    name_start = start + name_at
    item: Union[BodyNode, BundleRef]
    if keyword == "bundle":
        item = BundleRef(name, None, start + keyword_at, end, name_start)
    else:
        term: Union[TermNode, None] = None
        if value is not None:
            value_start = start + value_at
            if value[0] == "$":
                term = ParamTerm(value[1:], value_start, value_start + len(value))
            else:
                term = IdentTerm(value, value_start, value_start + len(value))
        subject = IdentTerm(name, name_start, name_start + len(name))
        item = BodyNode(keyword, subject, term, None, start + keyword_at, end)
    return PromiseDecl(promiser, promisee, item, start, end, start + promisee_at)


class ModelAst(Value, hidden=("lines",), uncompared=("file",)):
    """The declarations of one text, with the text's ``LineIndex``
    (``LineIndex("")`` when not given), which every span of it shares.

    ``parts`` are the declarations in the order they were read, where a
    statement token stands for the ``PromiseDecl`` that ``statement_decl``
    builds from it.  A tree built from ``decls`` has them as its parts.  A
    tree that ``parse`` made (``of_parts``) builds ``decls`` from its parts
    on the first read, and keeps it."""

    __slots__ = ("decls", "file", "lines", "_parts")

    def __init__(
        self,
        decls: tuple[Decl, ...],
        file: str = "<model>",
        lines: Union[LineIndex, None] = None,
    ) -> None:
        set_decls, set_file, set_lines, set_parts = self._setters
        set_decls(self, decls)
        set_file(self, file)
        set_lines(self, LineIndex("") if lines is None else lines)
        set_parts(self, decls)

    @classmethod
    def of_parts(
        cls, parts: tuple[Union[Decl, Token], ...], file: str, lines: LineIndex
    ) -> ModelAst:
        """The tree of the parser's ``parts``, its ``decls`` not yet built."""
        ast = cls.__new__(cls)
        _, set_file, set_lines, set_parts = cls._setters
        set_file(ast, file)
        set_lines(ast, lines)
        set_parts(ast, parts)
        return ast

    @property
    def parts(self) -> tuple[Union[Decl, Token], ...]:
        return self._parts

    def __getattr__(self, name: str) -> tuple[Decl, ...]:
        # Python calls this only for an attribute it did not find, as
        # ``decls`` of a tree made by ``of_parts``, before its first read.
        if name != "decls":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        decls = tuple([
            statement_decl(part) if part.__class__ is tuple else part for part in self._parts
        ])
        self._setters[0](self, decls)
        return decls

    def span(self, start: int, end: int) -> SourceSpan:
        """The span of ``[start, end)`` in this tree's file."""
        return make_span(self.file, start, end, self.lines)
