"""Report assembly and serialization: JSON, plain text, and DOT export.

Everything here is deterministic — sorted keys, sorted collections, fixed
formatting — so identical inputs serialize to identical bytes.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Union

from . import __version__
from .analysis import ClassHierarchy, Finding, Role
from .dsl import Diagnostic
from .model import format_body, PromiseGraph


@dataclass(frozen=True)
class FileEntry:
    path: str
    diagnostics: tuple[Diagnostic, ...] = ()


@dataclass(frozen=True)
class Report:
    """Everything one command run wants to say."""

    files: tuple[FileEntry, ...] = ()
    findings: tuple[Finding, ...] = ()
    roles: tuple[Role, ...] = ()
    hierarchy: Union[ClassHierarchy, None] = None
    notes: tuple[str, ...] = ()


def _diagnostic_obj(d: Diagnostic) -> dict:
    return {
        "severity": d.severity,
        "code": d.code,
        "message": d.message,
        "line": d.span.start_line,
        "col": d.span.start_col,
        "end_line": d.span.end_line,
        "end_col": d.span.end_col,
    }


def _unicode(text: str) -> str:
    """``text`` with each lone surrogate (how ``surrogateescape`` reads an
    undecodable file-name byte) as U+FFFD, so that the JSON is Unicode."""
    return re.sub("[\ud800-\udfff]", "\ufffd", text)


def _finding_obj(f: Finding) -> dict:
    return {
        "severity": f.severity.label,
        "code": f.code,
        "message": _unicode(f.message),
        "promises": list(f.promises),
    }


def _role_obj(r: Role) -> dict:
    return {
        "label": r.label,
        "members": list(r.members),
        "signature": [
            {
                "direction": direction,
                "polarity": polarity,
                "type": type_,
                "count": count,
            }
            for (direction, polarity, type_), count in r.signature
        ],
    }


def _hierarchy_obj(h: Union[ClassHierarchy, None]) -> dict:
    if h is None:
        return {}
    return {
        "classes": [
            {
                "role": rc.role.label,
                "agents": list(rc.role.members),
                "base": {"condition": rc.base.condition, "bodies": list(rc.base.bodies)},
                "subtypes": [
                    {"condition": s.condition, "bodies": list(s.bodies)}
                    for s in rc.subtypes
                ],
            }
            for rc in h.classes
        ]
    }


def report_json(report: Report) -> str:
    obj = {
        "version": __version__,
        "files": [
            {"path": _unicode(fe.path),
             "diagnostics": [_diagnostic_obj(d) for d in fe.diagnostics]}
            for fe in report.files
        ],
        "findings": [_finding_obj(f) for f in report.findings],
        "roles": [_role_obj(r) for r in report.roles],
        "hierarchy": _hierarchy_obj(report.hierarchy),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def format_text(report: Report) -> str:
    lines: list[str] = []
    for fe in report.files:
        for d in fe.diagnostics:
            lines.append(d.formatted())
    for note in report.notes:
        lines.append(note)
    if report.roles:
        lines.append(f"roles ({len(report.roles)}):")
        for r in report.roles:
            lines.append(f"  {r.label}: {', '.join(r.members)}")
    if report.hierarchy is not None:
        lines.append(f"classes ({len(report.hierarchy.classes)}):")
        for rc in report.hierarchy.classes:
            lines.append(f"  {rc.role.label} [{', '.join(rc.role.members)}]")
            for body in rc.base.bodies:
                lines.append(f"    {body}")
            for s in rc.subtypes:
                lines.append(f"    subtype if {s.condition}:")
                for body in s.bodies:
                    lines.append(f"      {body}")
    if report.findings:
        lines.append(f"findings ({len(report.findings)}):")
        for f in report.findings:
            lines.append(f"  [{f.severity.label}] {f.code}: {f.message}")
            for p in f.promises:
                lines.append(f"    - {p}")
    else:
        lines.append("no findings")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(graph: PromiseGraph) -> str:
    """The graph as DOT: one node per agent, one labeled edge per promise."""
    lines = ["digraph promises {"]
    for agent in graph.agents:
        lines.append(f'  "{_dot_escape(agent.name)}";')
    for p in graph.promises:
        label = _dot_escape(format_body(p.body))
        lines.append(
            f'  "{_dot_escape(p.promiser)}" -> "{_dot_escape(p.promisee)}" '
            f'[label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
