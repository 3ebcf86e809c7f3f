"""Syntax tree for the modeling language.

Nodes compare structurally with spans excluded, so ``parse(print(ast))``
round-trips to an equal tree even though every span moved.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .diagnostics import LineIndex, SourceSpan

_NO_SPAN = SourceSpan("<none>", 0, 0, LineIndex(""))


def _span_field() -> SourceSpan:
    return _NO_SPAN


@dataclass(frozen=True)
class Name:
    text: str
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class IdentTerm:
    name: str
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class ParamTerm:
    name: str
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class NumberTerm:
    value: Union[int, float]
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class StringTerm:
    value: str
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


TermNode = Union[IdentTerm, ParamTerm, NumberTerm, StringTerm]


@dataclass(frozen=True)
class CmpLiteralNode:
    lhs: TermNode
    op: str  # "==" or "!="
    rhs: TermNode
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class FlagLiteralNode:
    name: Name
    negated: bool = False
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


LiteralNode = Union[CmpLiteralNode, FlagLiteralNode]


@dataclass(frozen=True)
class ConditionNode:
    literals: tuple[LiteralNode, ...]
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class BodyNode:
    """``give``/``use`` + subject (type name or parameter) + optional value."""

    polarity: str  # "give" or "use"
    subject: Union[IdentTerm, ParamTerm]
    value: Union[TermNode, None] = None
    condition: Union[ConditionNode, None] = None
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class AgentDecl:
    names: tuple[Name, ...]
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class TypeDecl:
    name: Name  # a dotted name such as ``bank.balance`` is one name
    kind: str  # "num" | "str" | "service"
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class FlagDecl:
    name: Name
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class BundleDecl:
    name: Name
    parent: Union[Name, None]
    bodies: tuple[BodyNode, ...]
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class BundleRef:
    name: Name
    condition: Union[ConditionNode, None] = None
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


@dataclass(frozen=True)
class PromiseDecl:
    promiser: Name
    promisee: Name
    item: Union[BodyNode, BundleRef]
    span: SourceSpan = field(default_factory=_span_field, compare=False, repr=False)


Decl = Union[AgentDecl, TypeDecl, FlagDecl, BundleDecl, PromiseDecl]


@dataclass(frozen=True)
class ModelAst:
    decls: tuple[Decl, ...]
    file: str = field(default="<model>", compare=False)
