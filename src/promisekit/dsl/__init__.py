"""Text form of promise models: lexer, parser, printer, resolver.

``print_model`` is loaded the first time it is read (PEP 562): no ``pml``
command prints a model, so a ``pml`` process never loads the printer.
"""
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
    ERROR,
    has_errors,
    LineIndex,
    make_span,
    SourceSpan,
    WARNING,
)
from .lexer import Token, tokenize
from .parser import parse, ParseResult
from .resolver import resolve, ResolveResult

__all__ = [
    "AgentDecl",
    "BodyNode",
    "BundleDecl",
    "BundleRef",
    "CmpLiteralNode",
    "ConditionNode",
    "Decl",
    "Diagnostic",
    "diagnostic_sort_key",
    "ERROR",
    "FlagDecl",
    "FlagLiteralNode",
    "has_errors",
    "IdentTerm",
    "LineIndex",
    "make_span",
    "ModelAst",
    "NumberTerm",
    "ParamTerm",
    "parse",
    "ParseResult",
    "print_model",
    "PromiseDecl",
    "resolve",
    "ResolveResult",
    "SourceSpan",
    "StringTerm",
    "TermNode",
    "Token",
    "tokenize",
    "TypeDecl",
    "WARNING",
]


def __getattr__(name: str) -> object:
    if name == "print_model":
        from .printer import print_model

        return print_model
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), "print_model"])
