"""Compare one request's output with the answer its generator wrote down.

Reads only the output formats the `pml` command documents: the text report,
the JSON report and DOT.  Returns None when the verdict is right, otherwise
a short reason.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from typing import Optional

_FINDING = re.compile(r"^  \[[A-Za-z]+\] ([\w-]+): ")
_ISA_YES = re.compile(r"^\S+ is a \S+$")
_ISA_NO = re.compile(r"^\S+ is not a \S+ \(([\w-]+)\)$")
_DOT_NODE = re.compile(r'^  "[^"]*";$')
_DOT_EDGE = re.compile(r'^  "[^"]*" -> "[^"]*" \[label=')


def _text_report(out: str) -> dict:
    seen: dict = {"findings": Counter(), "role_sizes": [], "classes": 0,
                  "subtypes": 0, "isa": None}
    section = None
    for line in out.splitlines():
        if re.match(r"^roles \(\d+\):$", line):
            section = "roles"
        elif re.match(r"^classes \(\d+\):$", line):
            section = "classes"
        elif re.match(r"^findings \(\d+\):$", line) or line == "no findings":
            section = "findings"
        elif section == "roles" and line.startswith("  "):
            members = line.strip().partition(": ")[2]
            seen["role_sizes"].append(len(members.split(", ")))
        elif section == "classes" and line.startswith("  ") and not line.startswith("   "):
            seen["classes"] += 1
        elif section == "classes" and line.startswith("    subtype if "):
            seen["subtypes"] += 1
        elif section == "findings" and _FINDING.match(line):
            seen["findings"][_FINDING.match(line).group(1)] += 1
        elif section is None and _ISA_YES.match(line):
            seen["isa"] = "is-a"
        elif section is None and _ISA_NO.match(line):
            seen["isa"] = _ISA_NO.match(line).group(1)
    return seen


def _json_report(out: str) -> dict:
    obj = json.loads(out)
    codes = Counter(f["code"] for f in obj["findings"])
    isa_codes = [c for c in codes if c.startswith("isa-")]
    classes = obj["hierarchy"].get("classes", [])
    return {
        "findings": codes,
        "role_sizes": [len(r["members"]) for r in obj["roles"]],
        "classes": len(classes),
        "subtypes": sum(len(c["subtypes"]) for c in classes),
        "isa": isa_codes[0][len("isa-"):] if isa_codes else "is-a",
        "diagnostics": [d for f in obj["files"] for d in f["diagnostics"]],
    }


def _overlaps(diag: dict, span: tuple) -> bool:
    line, col, end_line, end_col = span
    return (diag["line"], diag["col"]) < (end_line, end_col) and (line, col) < (
        diag["end_line"], diag["end_col"])


def judge(expect: dict, argv: Optional[list], exit_code: int, out: str,
          spanning=None) -> Optional[str]:
    if "partition" in expect:
        got = sorted(sorted(c.members) for c in spanning)
        return None if got == expect["partition"] else f"spanning classes {got}"
    if "exit" in expect and exit_code != expect["exit"]:
        return f"exit {exit_code}, expected {expect['exit']}"
    if "edges" in expect:
        lines = out.splitlines()
        nodes = sum(1 for line in lines if _DOT_NODE.match(line))
        edges = sum(1 for line in lines if _DOT_EDGE.match(line))
        if (nodes, edges) != (expect["nodes"], expect["edges"]):
            return f"dot has {nodes} nodes and {edges} edges"
        return None
    try:
        seen = _json_report(out) if "--json" in argv else _text_report(out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if "diagnostic_at" in expect:
        if not any(d["severity"] == "error" and _overlaps(d, expect["diagnostic_at"])
                   for d in seen["diagnostics"]):
            return "no error diagnostic overlaps the mutated token"
        return None
    if "findings" in expect and seen["findings"] != Counter(expect["findings"]):
        return f"findings {dict(seen['findings'])}"
    if "role_sizes" in expect and sorted(seen["role_sizes"]) != sorted(expect["role_sizes"]):
        return f"role sizes {sorted(seen['role_sizes'])}"
    for key in ("classes", "subtypes", "isa"):
        if key in expect and seen[key] != expect[key]:
            return f"{key} {seen[key]!r}, expected {expect[key]!r}"
    return None
