"""Report assembly and serialization: JSON, plain text, and DOT export.

Everything here is deterministic — sorted keys, sorted collections, fixed
formatting — so identical inputs serialize to identical bytes.
"""
from __future__ import annotations

import re
from typing import Callable, Union

from . import __version__
from .analysis import ClassHierarchy, Finding, Role
from .dsl import Diagnostic
from .model import format_body, PromiseGraph
from .value import Value


class FileEntry(Value):
    __slots__ = ("path", "diagnostics")

    def __init__(self, path: str, diagnostics: tuple[Diagnostic, ...] = ()) -> None:
        set_path, set_diagnostics = self._setters
        set_path(self, path)
        set_diagnostics(self, diagnostics)


class Report(Value):
    """Everything one command run wants to say."""

    __slots__ = ("files", "findings", "roles", "hierarchy", "notes")

    def __init__(
        self,
        files: tuple[FileEntry, ...] = (),
        findings: tuple[Finding, ...] = (),
        roles: tuple[Role, ...] = (),
        hierarchy: Union[ClassHierarchy, None] = None,
        notes: tuple[str, ...] = (),
    ) -> None:
        set_files, set_findings, set_roles, set_hierarchy, set_notes = self._setters
        set_files(self, files)
        set_findings(self, findings)
        set_roles(self, roles)
        set_hierarchy(self, hierarchy)
        set_notes(self, notes)


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
    undecodable file-name byte) as U+FFFD, so that the JSON is Unicode.
    ASCII text, nearly every text, is returned as it is."""
    if text.isascii():
        return text
    return re.sub("[\ud800-\udfff]", "\ufffd", text)


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


def _layout(
    value: object,
    newline: str,
    parts: list[str],
    encode: Callable[[str], str],
    dumps: Callable[[object], str],
) -> None:
    """Append the JSON of ``value`` to ``parts``; each of its items starts a
    line two spaces deeper than ``newline``.  ``encode`` writes a string and
    ``dumps`` any other leaf."""
    if isinstance(value, str):  # most of a report
        parts.append(encode(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            parts.append(f"{opener}{inner}{encode(key)}: ")
            _layout(value[key], inner, parts, encode, dumps)
            opener = ","
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        opener = "["
        for item in value:
            parts.append(opener + inner)
            _layout(item, inner, parts, encode, dumps)
            opener = ","
        parts.append(newline + "]")
    else:
        parts.append(dumps(value))


def report_json(report: Report) -> str:
    """The report as ``json.dumps(obj, sort_keys=True, indent=2)`` and a
    newline, written faster.

    Any ``indent`` turns ``json``'s C encoder off for the whole document.
    Here the top-level object is written in sorted-key order and each
    finding from one template; files, roles and the hierarchy go through
    ``_layout``.  C code writes each string, number, bool, ``None`` and
    empty container.  ``json`` is imported here, not at the top, so that
    only ``--json`` output loads it.
    """
    from json import dumps
    from json.encoder import encode_basestring_ascii as encode

    files = [
        {"path": _unicode(fe.path),
         "diagnostics": [_diagnostic_obj(d) for d in fe.diagnostics]}
        for fe in report.files
    ]
    parts = ['{\n  "files": ']
    _layout(files, "\n  ", parts, encode, dumps)
    if report.findings:
        # A finding is a list item two levels deep; it cites at least one
        # promise, so its "promises" list is never empty.
        cite = ",\n        ".join
        parts.append(',\n  "findings": [')
        parts.append(",".join([
            f'\n    {{\n      "code": {encode(f.code)},'
            f'\n      "message": {encode(_unicode(f.message))},'
            f'\n      "promises": [\n        {cite(map(encode, f.promises))}\n      ],'
            f'\n      "severity": {encode(f.severity.label)}\n    }}'
            for f in report.findings
        ]))
        parts.append("\n  ]")
    else:
        parts.append(',\n  "findings": []')
    parts.append(',\n  "hierarchy": ')
    _layout(_hierarchy_obj(report.hierarchy), "\n  ", parts, encode, dumps)
    parts.append(',\n  "roles": ')
    _layout([_role_obj(r) for r in report.roles], "\n  ", parts, encode, dumps)
    parts.append(f',\n  "version": {encode(__version__)}\n}}\n')
    return "".join(parts)


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
