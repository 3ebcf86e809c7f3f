"""The ``pml`` command: parse, check, and summarize promise models.

Exit codes: 0 clean; 1 findings at policy-violation severity or worse;
2 parse/resolve failure, unreadable input or an unwritable ``-o`` path;
3 usage error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence, Union

from .analysis import (
    check_is_a,
    derive_class_hierarchy,
    detect_conflicts,
    discover_roles,
    Finding,
    finding_sort_key,
    INCONSISTENT,
    IsAVerdict,
    RESTRICTED,
    Severity,
)
from .dsl import parse, resolve, ResolveResult
from .errors import UnsatisfiableError
from .model import PromiseGraph
from .report import export_dot, FileEntry, format_text, Report, report_json

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INPUT_ERROR = 2
EXIT_USAGE = 3


class _OutputError(Exception):
    """An ``-o`` path that cannot be written; ``main`` reports it."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract says 3."""

    def error(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser, json_flag: bool = True) -> None:
        p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")

    p_check = sub.add_parser("check", help="resolve models and detect conflicts")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    common(p_check)

    p_roles = sub.add_parser("roles", help="partition agents into roles")
    p_roles.add_argument("file", metavar="FILE")
    common(p_roles)

    p_classes = sub.add_parser("classes", help="derive the class hierarchy")
    p_classes.add_argument("file", metavar="FILE")
    common(p_classes)

    p_isa = sub.add_parser("isa", help="test whether CHILD can stand in for PARENT")
    p_isa.add_argument("file", metavar="FILE")
    p_isa.add_argument("child", metavar="CHILD")
    p_isa.add_argument("parent", metavar="PARENT")
    common(p_isa)

    p_dot = sub.add_parser("dot", help="export the promise graph as DOT")
    p_dot.add_argument("file", metavar="FILE")
    common(p_dot, json_flag=False)
    return parser


def _load(path: str) -> tuple[Union[ResolveResult, None], FileEntry, Union[str, None]]:
    """Parse and resolve one file; the string is a hard I/O error, if any."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        return None, FileEntry(path), f"pml: cannot read {path}: {reason}"
    parsed = parse(text, path)
    if not parsed.ok:
        return None, FileEntry(path, tuple(parsed.diagnostics)), None
    resolved = resolve(parsed.ast)
    diagnostics = tuple(parsed.diagnostics) + tuple(resolved.diagnostics)
    return resolved, FileEntry(path, diagnostics), None


def _load_graph(
    args: argparse.Namespace, report_errors: bool = True
) -> tuple[Union[PromiseGraph, None], FileEntry]:
    """Load ``args.file`` for a one-file command: (graph, entry), or (None,
    entry) once the failure is reported.  Diagnostics go out as a report, or
    to stderr when ``report_errors`` is false."""
    resolved, entry, io_error = _load(args.file)
    if io_error:
        print(io_error, file=sys.stderr)
        return None, entry
    if resolved is None or not resolved.ok:
        if report_errors:
            _emit(Report((entry,)), args.json, args.output)
        else:
            for d in entry.diagnostics:
                print(d.formatted(), file=sys.stderr)
        return None, entry
    return resolved.graph, entry


def _emit(report: Report, as_json: bool, output: Union[str, None]) -> None:
    _write(report_json(report) if as_json else format_text(report), output)


def _write(text: str, output: Union[str, None]) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _OutputError(f"pml: cannot write {output}: {exc.strerror or exc}") from None


def _exit_for(findings: Sequence[Finding]) -> int:
    worst = max((f.severity for f in findings), default=None)
    if worst is not None and worst >= Severity.POLICY_VIOLATION:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_check(args: argparse.Namespace) -> int:
    entries: list[FileEntry] = []
    findings: list[Finding] = []
    roles = []
    failed = False
    multi = len(args.files) > 1
    for path in args.files:
        resolved, entry, io_error = _load(path)
        entries.append(entry)
        if io_error:
            print(io_error, file=sys.stderr)
            failed = True
            continue
        if resolved is None or not resolved.ok:
            failed = True
            continue
        graph = resolved.graph
        for f in detect_conflicts(graph):
            if multi:
                f = Finding(f.severity, f.code, f"{path}: {f.message}", f.promises)
            findings.append(f)
        roles.extend(discover_roles(graph))
    findings.sort(key=finding_sort_key)
    report = Report(tuple(entries), tuple(findings), tuple(roles))
    _emit(report, args.json, args.output)
    if failed:
        return EXIT_INPUT_ERROR
    return _exit_for(findings)


def _cmd_roles(args: argparse.Namespace) -> int:
    graph, entry = _load_graph(args)
    if graph is None:
        return EXIT_INPUT_ERROR
    report = Report((entry,), roles=tuple(discover_roles(graph)))
    _emit(report, args.json, args.output)
    return EXIT_CLEAN


def _cmd_classes(args: argparse.Namespace) -> int:
    graph, entry = _load_graph(args)
    if graph is None:
        return EXIT_INPUT_ERROR
    hierarchy = derive_class_hierarchy(graph)
    report = Report((entry,), findings=hierarchy.findings, hierarchy=hierarchy)
    _emit(report, args.json, args.output)
    return _exit_for(hierarchy.findings)


_ISA_SEVERITY = {
    RESTRICTED: Severity.RESTRICTED,
    INCONSISTENT: Severity.INCONSISTENT,
}


def _isa_findings(verdict: IsAVerdict, child: str, parent: str) -> tuple[Finding, ...]:
    if verdict.is_a:
        return ()
    detail = "; ".join(verdict.details)
    return (
        Finding(
            _ISA_SEVERITY[verdict.outcome],
            f"isa-{verdict.outcome}",
            f"{child} cannot stand in for {parent}: {detail}",
            verdict.involved or (f"bundle {child}",),
        ),
    )


def _cmd_isa(args: argparse.Namespace) -> int:
    graph, entry = _load_graph(args)
    if graph is None:
        return EXIT_INPUT_ERROR
    missing = [
        name for name in (args.child, args.parent) if graph.bundle(name) is None
    ]
    if missing:
        available = ", ".join(b.name for b in graph.bundles) or "(none)"
        print(
            f"pml isa: unknown bundle {', '.join(missing)}; "
            f"{args.file} declares: {available}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        verdict = check_is_a(graph.bundle(args.child), graph.bundle(args.parent))
    except UnsatisfiableError as exc:
        print(f"pml isa: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    findings = _isa_findings(verdict, args.child, args.parent)
    note = (
        f"{args.child} is a {args.parent}"
        if verdict.is_a
        else f"{args.child} is not a {args.parent} ({verdict.outcome})"
    )
    report = Report((entry,), findings=findings, notes=(note,))
    _emit(report, args.json, args.output)
    return _exit_for(findings)


def _cmd_dot(args: argparse.Namespace) -> int:
    graph, _entry = _load_graph(args, report_errors=False)
    if graph is None:
        return EXIT_INPUT_ERROR
    _write(export_dot(graph), args.output)
    return EXIT_CLEAN


_COMMANDS = {
    "check": _cmd_check,
    "roles": _cmd_roles,
    "classes": _cmd_classes,
    "isa": _cmd_isa,
    "dot": _cmd_dot,
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
