"""Syntax tree for the modeling language.

Nodes compare structurally with spans excluded, so ``parse(print(ast))``
round-trips to an equal tree even though every span moved.
"""
from __future__ import annotations

from typing import Union

from ..value import Value
from .diagnostics import LineIndex, SourceSpan

_NO_SPAN = SourceSpan("<none>", 0, 0, LineIndex(""))


class Name(Value, hidden=("span",)):
    __slots__ = ("text", "span")

    def __init__(self, text: str, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "span", span)


class IdentTerm(Value, hidden=("span",)):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


class ParamTerm(Value, hidden=("span",)):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


class NumberTerm(Value, hidden=("span",)):
    __slots__ = ("value", "span")

    def __init__(self, value: Union[int, float], span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "span", span)


class StringTerm(Value, hidden=("span",)):
    __slots__ = ("value", "span")

    def __init__(self, value: str, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "span", span)


TermNode = Union[IdentTerm, ParamTerm, NumberTerm, StringTerm]


class CmpLiteralNode(Value, hidden=("span",)):
    __slots__ = ("lhs", "op", "rhs", "span")

    def __init__(
        self, lhs: TermNode, op: str, rhs: TermNode, span: SourceSpan = _NO_SPAN
    ) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "op", op)  # "==" or "!="
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "span", span)


class FlagLiteralNode(Value, hidden=("span",)):
    __slots__ = ("name", "negated", "span")

    def __init__(self, name: Name, negated: bool = False, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "negated", negated)
        object.__setattr__(self, "span", span)


LiteralNode = Union[CmpLiteralNode, FlagLiteralNode]


class ConditionNode(Value, hidden=("span",)):
    __slots__ = ("literals", "span")

    def __init__(self, literals: tuple[LiteralNode, ...], span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "literals", literals)
        object.__setattr__(self, "span", span)


class BodyNode(Value, hidden=("span",)):
    """``give``/``use`` + subject (type name or parameter) + optional value."""

    __slots__ = ("polarity", "subject", "value", "condition", "span")

    def __init__(
        self,
        polarity: str,  # "give" or "use"
        subject: Union[IdentTerm, ParamTerm],
        value: Union[TermNode, None] = None,
        condition: Union[ConditionNode, None] = None,
        span: SourceSpan = _NO_SPAN,
    ) -> None:
        object.__setattr__(self, "polarity", polarity)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "span", span)


class AgentDecl(Value, hidden=("span",)):
    __slots__ = ("names", "span")

    def __init__(self, names: tuple[Name, ...], span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "span", span)


class TypeDecl(Value, hidden=("span",)):
    __slots__ = ("name", "kind", "span")

    def __init__(self, name: Name, kind: str, span: SourceSpan = _NO_SPAN) -> None:
        # A dotted name such as ``bank.balance`` is one name.
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)  # "num" | "str" | "service"
        object.__setattr__(self, "span", span)


class FlagDecl(Value, hidden=("span",)):
    __slots__ = ("name", "span")

    def __init__(self, name: Name, span: SourceSpan = _NO_SPAN) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "span", span)


class BundleDecl(Value, hidden=("span",)):
    __slots__ = ("name", "parent", "bodies", "span")

    def __init__(
        self,
        name: Name,
        parent: Union[Name, None],
        bodies: tuple[BodyNode, ...],
        span: SourceSpan = _NO_SPAN,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "bodies", bodies)
        object.__setattr__(self, "span", span)


class BundleRef(Value, hidden=("span",)):
    __slots__ = ("name", "condition", "span")

    def __init__(
        self, name: Name, condition: Union[ConditionNode, None] = None, span: SourceSpan = _NO_SPAN
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "span", span)


class PromiseDecl(Value, hidden=("span",)):
    __slots__ = ("promiser", "promisee", "item", "span")

    def __init__(
        self,
        promiser: Name,
        promisee: Name,
        item: Union[BodyNode, BundleRef],
        span: SourceSpan = _NO_SPAN,
    ) -> None:
        object.__setattr__(self, "promiser", promiser)
        object.__setattr__(self, "promisee", promisee)
        object.__setattr__(self, "item", item)
        object.__setattr__(self, "span", span)


Decl = Union[AgentDecl, TypeDecl, FlagDecl, BundleDecl, PromiseDecl]


class ModelAst(Value, uncompared=("file",)):
    __slots__ = ("decls", "file")

    def __init__(self, decls: tuple[Decl, ...], file: str = "<model>") -> None:
        object.__setattr__(self, "decls", decls)
        object.__setattr__(self, "file", file)
