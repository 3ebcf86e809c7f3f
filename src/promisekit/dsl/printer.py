"""Canonical source printer.

Emits one declaration per line (bundle bodies indented two spaces), so any
two equal trees print identically and ``parse(print_model(ast))`` yields a
tree equal to ``ast``.
"""
from __future__ import annotations

from ..model import escape_string, format_number
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


def _term(node: TermNode) -> str:
    if isinstance(node, IdentTerm):
        return node.name
    if isinstance(node, ParamTerm):
        return f"${node.name}"
    if isinstance(node, NumberTerm):
        return format_number(node.value)
    if isinstance(node, StringTerm):
        return escape_string(node.value)
    raise TypeError(f"not a term node: {node!r}")


def _condition(node: ConditionNode) -> str:
    parts = []
    for lit in node.literals:
        if isinstance(lit, FlagLiteralNode):
            parts.append(f"not {lit.name}" if lit.negated else lit.name)
        elif isinstance(lit, CmpLiteralNode):
            parts.append(f"{_term(lit.lhs)} {lit.op} {_term(lit.rhs)}")
        else:
            raise TypeError(f"not a literal node: {lit!r}")
    return " and ".join(parts)


def _body(node: BodyNode) -> str:
    out = f"{node.polarity} {_term(node.subject)}"
    if node.value is not None:
        out += f" = {_term(node.value)}"
    if node.condition is not None:
        out += f" if {_condition(node.condition)}"
    return out + ";"


def _decl(node: Decl) -> str:
    if isinstance(node, AgentDecl):
        return "agent " + ", ".join(node.names) + ";"
    if isinstance(node, TypeDecl):
        return f"type {node.name}: {node.kind};"
    if isinstance(node, FlagDecl):
        return f"flag {node.name};"
    if isinstance(node, BundleDecl):
        header = f"bundle {node.name}"
        if node.parent is not None:
            header += f" extends {node.parent}"
        lines = [header + " {"]
        lines.extend(f"  {_body(b)}" for b in node.bodies)
        lines.append("}")
        return "\n".join(lines)
    if isinstance(node, PromiseDecl):
        head = f"{node.promiser} -> {node.promisee}: "
        if isinstance(node.item, BundleRef):
            out = head + f"bundle {node.item.name}"
            if node.item.condition is not None:
                out += f" if {_condition(node.item.condition)}"
            return out
        if isinstance(node.item, BodyNode):
            return head + _body(node.item)
    raise TypeError(f"not a declaration node: {node!r}")


def print_model(ast: ModelAst) -> str:
    """Render a tree back to canonical source text."""
    if not ast.decls:
        return ""
    return "\n".join(_decl(d) for d in ast.decls) + "\n"
