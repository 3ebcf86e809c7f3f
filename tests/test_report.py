"""Report assembly, JSON stability, text rendering, DOT export."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from promisekit import __version__, corpus
from promisekit.analysis import (
    ClassHierarchy,
    ClassNode,
    derive_class_hierarchy,
    detect_conflicts,
    discover_roles,
    Finding,
    Role,
    RoleClasses,
    Severity,
)
from promisekit.dsl import Diagnostic, LineIndex, parse, SourceSpan
from promisekit.model import format_body
from promisekit.report import (
    _layout,
    export_dot,
    FileEntry,
    format_text,
    Report,
    report_json,
)

from loaders import load_corpus


def bank_report() -> Report:
    graph = load_corpus("bank.pml")
    return Report(
        files=(FileEntry("bank.pml"),),
        findings=tuple(detect_conflicts(graph)),
        roles=tuple(discover_roles(graph)),
        hierarchy=derive_class_hierarchy(graph),
    )


SAMPLE_FINDING = Finding(
    Severity.RESTRICTED, "channel-restricted", "forced merge", ("a -> b: +w=$v",)
)


class TestJson:
    def test_schema_top_level_keys(self):
        data = json.loads(report_json(bank_report()))
        assert sorted(data) == ["files", "findings", "hierarchy", "roles", "version"]
        assert data["version"] == __version__

    def test_the_reported_version_is_the_packages(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [__version__]

    def test_keys_are_sorted_everywhere(self):
        text = report_json(bank_report())
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_serialization_is_byte_stable(self):
        assert report_json(bank_report()) == report_json(bank_report())

    def test_findings_use_readable_severity_names(self):
        report = Report(files=(), findings=(SAMPLE_FINDING,))
        data = json.loads(report_json(report))
        assert data["findings"][0]["severity"] == "Restricted"
        assert data["findings"][0]["code"] == "channel-restricted"
        assert data["findings"][0]["promises"] == ["a -> b: +w=$v"]

    def test_diagnostics_carry_positions(self):
        span = SourceSpan("f.pml", 10, 14, LineIndex("abcde\nwxyz12345\n"))
        diag = Diagnostic("error", "E-PARSE-001", "boom", span)
        report = Report(files=(FileEntry("f.pml", (diag,)),))
        data = json.loads(report_json(report))
        got = data["files"][0]["diagnostics"][0]
        assert (got["line"], got["col"], got["end_line"], got["end_col"]) == (2, 5, 2, 9)
        assert got["code"] == "E-PARSE-001"
        assert got["severity"] == "error"

    def test_diagnostic_columns_count_characters(self):
        # CRLF line ends, a tab, an astral-plane letter and an astral-plane
        # symbol: each character is one column.  An unterminated string ends
        # before the "\r" of its line.
        text = "agent a;\r\n\t\U0001D400 \U0001F600;\r\nx = \"\u00e9\r\n"
        diagnostics = tuple(parse(text, "f.pml").diagnostics)
        data = json.loads(report_json(Report(files=(FileEntry("f.pml", diagnostics),))))
        got = [
            (d["code"], d["line"], d["col"], d["end_line"], d["end_col"])
            for d in data["files"][0]["diagnostics"]
        ]
        assert got == [
            ("E-LEX-001", 2, 4, 2, 5),
            ("E-PARSE-001", 2, 5, 2, 6),
            ("E-PARSE-001", 3, 3, 3, 4),
            ("E-LEX-002", 3, 5, 3, 7),
        ]

    def test_roles_expose_signature_entries(self):
        data = json.loads(report_json(bank_report()))
        labels = [r["label"] for r in data["roles"]]
        assert "gives:account_functions+keep_money_safe" in labels
        first = data["roles"][0]
        assert set(first["signature"][0]) == {"direction", "polarity", "type", "count"}

    def test_hierarchy_block(self):
        data = json.loads(report_json(bank_report()))
        classes = data["hierarchy"]["classes"]
        account = next(
            c for c in classes if c["role"] == "gives:account_functions+keep_money_safe"
        )
        assert account["agents"] == ["account"]
        assert len(account["subtypes"]) == 2
        assert account["subtypes"][0]["condition"] == "name != owner and employee"

    def test_absent_hierarchy_serializes_empty(self):
        data = json.loads(report_json(Report(files=())))
        assert data["hierarchy"] == {}


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300)
@given(st.dictionaries(st.text(), json_values, max_size=5) | json_values)
@example({"files": [], "hierarchy": {}, "roles": [{"count": 2, "members": ["\u00e9", "b"]}]})
@example({"a": [[], {}, [None, True, False, -1, 2.5, 1e300, "\u2603\n\"q\""]]})
@example({"tuples": ((), ("a", ["b"]))})
def test_layout_is_the_json_modules_layout(value):
    parts: list[str] = []
    _layout(value, "\n", parts, json.encoder.encode_basestring_ascii, json.dumps)
    assert "".join(parts) == json.dumps(value, sort_keys=True, indent=2)


def _reference_unicode(text: str) -> str:
    return re.sub("[\ud800-\udfff]", "\ufffd", text)


def reference(report: Report) -> dict:
    """The report as the plain object that ``report_json`` writes."""
    hierarchy = report.hierarchy
    return {
        "version": __version__,
        "files": [
            {
                "path": _reference_unicode(fe.path),
                "diagnostics": [
                    {
                        "severity": d.severity,
                        "code": d.code,
                        "message": d.message,
                        "line": d.span.start_line,
                        "col": d.span.start_col,
                        "end_line": d.span.end_line,
                        "end_col": d.span.end_col,
                    }
                    for d in fe.diagnostics
                ],
            }
            for fe in report.files
        ],
        "findings": [
            {
                "severity": f.severity.label,
                "code": f.code,
                "message": _reference_unicode(f.message),
                "promises": list(f.promises),
            }
            for f in report.findings
        ],
        "roles": [
            {
                "label": r.label,
                "members": list(r.members),
                "signature": [
                    {"direction": d, "polarity": p, "type": t, "count": n}
                    for (d, p, t), n in r.signature
                ],
            }
            for r in report.roles
        ],
        "hierarchy": {} if hierarchy is None else {
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
                for rc in hierarchy.classes
            ]
        },
    }


# Quotes, backslashes, control characters, non-ASCII letters, an astral
# character, JSON's line separators and lone surrogates (how an undecodable
# file-name byte reads).
HOSTILE = st.text(
    st.sampled_from('ab "\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001F600\ud800\udcff->:'), max_size=6
)
TINY = st.text("ab", max_size=2)


@st.composite
def diagnostics(draw) -> Diagnostic:
    text = draw(st.text("ab\n\r\t\u00e9", max_size=8))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    span = SourceSpan(draw(HOSTILE), start, end, LineIndex(text))
    return Diagnostic(draw(st.sampled_from(["error", "warning"])), draw(TINY), draw(HOSTILE), span)


@st.composite
def file_entries(draw) -> FileEntry:
    return FileEntry(draw(HOSTILE), tuple(draw(st.lists(diagnostics(), max_size=2))))


@st.composite
def findings(draw) -> Finding:
    # A multi-file message starts with its file's path.
    message = draw(st.one_of(HOSTILE, st.tuples(HOSTILE, HOSTILE).map(": ".join)))
    promises = tuple(draw(st.lists(HOSTILE, min_size=1, max_size=3)))
    return Finding(draw(st.sampled_from(Severity)), draw(HOSTILE), message, promises)


@st.composite
def roles(draw) -> Role:
    entry = st.tuples(st.tuples(TINY, TINY, HOSTILE), st.integers(0, 3))
    signature = tuple(draw(st.lists(entry, max_size=2)))
    return Role(signature, draw(HOSTILE), tuple(draw(st.lists(HOSTILE, max_size=2))))


@st.composite
def class_nodes(draw) -> ClassNode:
    return ClassNode(draw(HOSTILE), tuple(draw(st.lists(HOSTILE, max_size=2))))


@st.composite
def hierarchies(draw) -> ClassHierarchy:
    classes = draw(st.lists(
        st.builds(RoleClasses, roles(), class_nodes(), st.lists(class_nodes(), max_size=2).map(tuple)),
        max_size=2,
    ))
    return ClassHierarchy(tuple(classes))


@st.composite
def reports(draw) -> Report:
    return Report(
        files=tuple(draw(st.lists(file_entries(), max_size=2))),
        findings=tuple(draw(st.lists(findings(), max_size=3))),
        roles=tuple(draw(st.lists(roles(), max_size=2))),
        hierarchy=draw(st.none() | hierarchies()),
    )


@settings(max_examples=200, deadline=None)
@example(Report())
@example(Report(
    files=(FileEntry("dir/\udcff.pml"),),
    findings=(Finding(Severity.INCONSISTENT, "c", "dir/\udcff.pml: a -> b: x", ("a -> b: +w",)),),
))
@given(reports())
def test_report_json_is_the_json_modules_layout_of_the_report(report):
    text = report_json(report)
    assert text == json.dumps(reference(report), sort_keys=True, indent=2) + "\n"
    data = json.loads(text)
    written = [f["path"] for f in data["files"]] + [f["message"] for f in data["findings"]]
    assert not any("\ud800" <= c <= "\udfff" for t in written for c in t)


class TestText:
    def test_clean_report_says_so(self):
        text = format_text(Report(files=(FileEntry("x.pml"),)))
        assert "no findings" in text
        assert text.endswith("\n")

    def test_findings_render_with_label_and_citations(self):
        text = format_text(Report(files=(), findings=(SAMPLE_FINDING,)))
        assert "[Restricted] channel-restricted: forced merge" in text
        assert "a -> b: +w=$v" in text

    def test_sections_appear_when_populated(self):
        text = format_text(bank_report())
        assert "roles (2):" in text
        assert "classes (2):" in text
        assert "U(use_account)" in text

    def test_diagnostics_render_like_compiler_output(self):
        result = parse("agent a\nagent b;\n", "bad.pml")
        report = Report(files=(FileEntry("bad.pml", tuple(result.diagnostics)),))
        text = format_text(report)
        assert "bad.pml:2:1: error[E-PARSE-001]" in text


EDGE_RE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="((?:[^"\\]|\\.)*)"\];$')
NODE_RE = re.compile(r'^  "([^"]+)";$')


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str, str]]]:
    lines = text.splitlines()
    assert lines[0] == "digraph promises {"
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        edge = EDGE_RE.match(line)
        if edge:
            label = edge.group(3).replace('\\"', '"').replace("\\\\", "\\")
            edges.append((edge.group(1), edge.group(2), label))
            continue
        node = NODE_RE.match(line)
        assert node, f"unparseable line: {line!r}"
        nodes.append(node.group(1))
    return nodes, edges


class TestDot:
    @pytest.mark.parametrize("name", corpus.names())
    def test_one_node_per_agent_one_edge_per_promise(self, name):
        graph = load_corpus(name)
        nodes, edges = parse_dot(export_dot(graph))
        assert nodes == [a.name for a in graph.agents]
        assert len(edges) == len(graph.promises)
        expected = sorted(
            (p.promiser, p.promisee, format_body(p.body)) for p in graph.promises
        )
        assert sorted(edges) == expected

    def test_deterministic(self):
        graph = load_corpus("bank_central.pml")
        assert export_dot(graph) == export_dot(graph)

    def test_quotes_in_labels_are_escaped(self):
        graph = load_corpus("dispatch.pml")  # labels contain "plain"/"rich"
        text = export_dot(graph)
        assert '\\"plain\\"' in text
        _, edges = parse_dot(text)
        assert any(label == '+render="plain" if not subtype' for _, _, label in edges)
