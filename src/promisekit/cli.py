"""The pml command: parse, check, and summarize promise models.

Exit codes: 0 clean; 1 findings at policy-violation severity or worse;
2 parse/resolve failure, unreadable input, or an output that cannot take
the text; 3 usage error.  pml isa exits 3 for an unknown bundle name and
2 for a bundle that is unsatisfiable on its own.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import NoReturn, Sequence, Union

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
from .dsl import parse, resolve
from .errors import UnsatisfiableError
from .model import PromiseGraph
from .report import export_dot, FileEntry, format_text, Report, report_json

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INPUT_ERROR = 2
EXIT_USAGE = 3


def _say(line: str) -> None:
    """Write ``line`` to stderr, through its byte stream where it has one, so
    that an undecodable path byte (a surrogate escape) reaches it as that
    byte, as it reaches an ``-o`` file.  Text the stream's encoding cannot
    hold goes through the text stream, which escapes it."""
    stream = sys.stderr
    buffer = getattr(stream, "buffer", None)
    if buffer is not None:
        try:
            data = f"{line}\n".encode(stream.encoding, "surrogateescape")
        except UnicodeEncodeError:
            pass
        else:
            stream.flush()
            buffer.write(data)
            buffer.flush()
            return
    print(line, file=stream)


#: One row per command: its name, its help line, its positionals as
#: (dest, metavar, nargs), and whether it takes ``--json``.
_SUBCOMMANDS = (
    ("check", "resolve models and detect conflicts", (("files", "FILE", "+"),), True),
    ("roles", "partition agents into roles", (("file", "FILE", None),), True),
    ("classes", "derive the class hierarchy", (("file", "FILE", None),), True),
    (
        "isa",
        "test whether CHILD can stand in for PARENT",
        (("file", "FILE", None), ("child", "CHILD", None), ("parent", "PARENT", None)),
        True,
    ),
    ("dot", "export the promise graph as DOT", (("file", "FILE", None),), False),
)


def _build_parser():
    """The pml parser built whole: every command with its help line and its
    arguments, so that ``--help`` and the unknown-command error name all five."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with 2 on usage errors; the contract says 3."""

        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _Parser(prog="pml", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_line, positionals, json_flag in _SUBCOMMANDS:
        command = sub.add_parser(name, help=help_line)
        for dest, metavar, nargs in positionals:
            command.add_argument(dest, nargs=nargs, metavar=metavar)
        command.add_argument("-o", "--output", metavar="PATH", help="write output to PATH")
        if json_flag:
            command.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def _read_plain(argv: Sequence[str]) -> Union[dict, None]:
    """The arguments of ``argv``, as the whole parser would read them, when
    ``argv`` has the plain shape: a command, then positionals that do not
    start with ``-``, ``--json`` where the command takes it, and at most one
    ``-o`` or ``--output`` followed by a value that does not start with
    ``-``, with as many positionals as the command takes.  ``check``'s
    files must be one unbroken run, because argparse takes no more of them
    once an option has followed them.  Any other ``argv`` gives None."""
    row = next((row for row in _SUBCOMMANDS if argv and argv[0] == row[0]), None)
    if row is None:
        return None
    name, _, positionals, json_flag = row
    variadic = positionals[0][2] == "+"
    args = {"command": name, "output": None}
    if json_flag:
        args["json"] = False
    words: list[str] = []
    ended = False
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            if ended:
                return None
            words.append(word)
            continue
        ended = variadic and bool(words)
        if word == "--json" and json_flag:
            args["json"] = True
        elif word in ("-o", "--output") and args["output"] is None:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
            args["output"] = value
        else:
            return None
    if variadic and words:
        args[positionals[0][0]] = words
    elif not variadic and len(words) == len(positionals):
        args.update(zip((dest for dest, _, _ in positionals), words))
    else:
        return None
    return args


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The arguments of ``argv``.  A plain command line (see ``_read_plain``)
    is read without argparse.  Every other one, ``--help``, ``-h``, ``--``,
    ``-oPATH``, ``--output=PATH``, an abbreviated option, an unknown command
    and a left-over word among them, goes to the parser built whole, which
    answers help and usage errors itself.  Either way the commands get the
    arguments as one ``SimpleNamespace``."""
    args = _read_plain(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    return SimpleNamespace(**args)


def _load(path: str) -> tuple[Union[PromiseGraph, None], FileEntry]:
    """Read, parse and resolve one file: its graph, or None when the file
    cannot be used, and its entry.  An unreadable file is reported on stderr
    here, and its entry has no diagnostics.  One leading byte-order mark is
    dropped, as Python drops one from its own source."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        _say(f"pml: cannot read {path}: {reason}")
        return None, FileEntry(path)
    parsed = parse(text, path)
    if not parsed.ok:
        return None, FileEntry(path, tuple(parsed.diagnostics))
    resolved = resolve(parsed.ast)
    diagnostics = tuple(parsed.diagnostics) + tuple(resolved.diagnostics)
    return resolved.graph, FileEntry(path, diagnostics)


def _emit(args: SimpleNamespace, report: Report, text: Union[str, None] = None) -> int:
    """Write ``text``, or else the report as text or JSON, to stdout or ``-o``.

    Returns 2 when the output cannot take the text (nothing is written then),
    else 1 for a finding at policy-violation severity or worse, else 0.
    """
    if text is None:
        text = report_json(report) if args.json else format_text(report)
    try:
        if args.output is not None:
            # surrogateescape writes a path's undecodable bytes back as they were.
            with open(
                args.output, "w", encoding="utf-8", errors="surrogateescape", newline="\n"
            ) as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        _say(f"pml: cannot write {'stdout' if args.output is None else args.output}: {reason}")
        return EXIT_INPUT_ERROR
    if any(f.severity >= Severity.POLICY_VIOLATION for f in report.findings):
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _cmd_check(args: SimpleNamespace) -> int:
    entries: list[FileEntry] = []
    findings: list[Finding] = []
    roles = []
    failed = False
    multi = len(args.files) > 1
    for path in args.files:
        graph, entry = _load(path)
        # An entry with no graph and no diagnostics is a file that was not
        # read, which the report leaves out.
        if graph is not None or entry.diagnostics:
            entries.append(entry)
        if graph is None:
            failed = True
            continue
        for f in detect_conflicts(graph):
            if multi:
                f = Finding(f.severity, f.code, f"{path}: {f.message}", f.promises)
            findings.append(f)
        roles.extend(discover_roles(graph))
    if not entries:
        return EXIT_INPUT_ERROR
    findings.sort(key=finding_sort_key)
    code = _emit(args, Report(tuple(entries), tuple(findings), tuple(roles)))
    return EXIT_INPUT_ERROR if failed else code


def _cmd_roles(args: SimpleNamespace, graph: PromiseGraph, entry: FileEntry) -> int:
    return _emit(args, Report((entry,), roles=tuple(discover_roles(graph))))


def _cmd_classes(args: SimpleNamespace, graph: PromiseGraph, entry: FileEntry) -> int:
    hierarchy = derive_class_hierarchy(graph)
    return _emit(args, Report((entry,), findings=hierarchy.findings, hierarchy=hierarchy))


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


def _cmd_isa(args: SimpleNamespace, graph: PromiseGraph, entry: FileEntry) -> int:
    missing = [
        name for name in (args.child, args.parent) if graph.bundle(name) is None
    ]
    if missing:
        available = ", ".join(b.name for b in graph.bundles) or "(none)"
        _say(f"pml isa: unknown bundle {', '.join(missing)}; {args.file} declares: {available}")
        return EXIT_USAGE
    try:
        verdict = check_is_a(graph.bundle(args.child), graph.bundle(args.parent))
    except UnsatisfiableError as exc:
        _say(f"pml isa: {exc}")
        return EXIT_INPUT_ERROR
    findings = _isa_findings(verdict, args.child, args.parent)
    note = (
        f"{args.child} is a {args.parent}"
        if verdict.is_a
        else f"{args.child} is not a {args.parent} ({verdict.outcome})"
    )
    return _emit(args, Report((entry,), findings=findings, notes=(note,)))


def _cmd_dot(args: SimpleNamespace, graph: PromiseGraph, entry: FileEntry) -> int:
    return _emit(args, Report(), export_dot(graph))


_COMMANDS = {
    "roles": _cmd_roles,
    "classes": _cmd_classes,
    "isa": _cmd_isa,
    "dot": _cmd_dot,
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "check":
        return _cmd_check(args)
    # A one-file command: dot prints its file's diagnostics on stderr, warnings
    # included; the others report them, and only them when the file is unusable.
    graph, entry = _load(args.file)
    if args.command == "dot":
        for d in entry.diagnostics:
            _say(d.formatted())
    elif graph is None and entry.diagnostics:
        _emit(args, Report((entry,)))
    if graph is None:
        return EXIT_INPUT_ERROR
    return _COMMANDS[args.command](args, graph, entry)


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
