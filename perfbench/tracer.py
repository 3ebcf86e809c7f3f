"""Per-layer tracing from outside the program.

`Tracer.install` rebinds each traced promisekit function, at every module
attribute where it is bound (where it is defined and wherever it was
imported by name), to a timing wrapper; `uninstall` puts the originals back.
The `PromiseGraph` scan methods are wrapped on the class.  Nothing in the
program changes while the tracer is uninstalled.

Layer-boundary calls are kept as spans (request, id, parent, name, start,
end).  Hot inner calls (graph scans, closures, condition tests, signatures)
are only counted and timed, so that tracing stays cheap; their time still
counts as child time of the span around them.  A layer's self time is its
duration minus the time of the wrapped calls directly beneath it.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Optional


def _count(target: str, measure: Callable) -> Callable:
    """An after-hook adding ``measure(result)`` to the field "stat:field"."""
    stat, field = target.split(":")

    def after(stats, result) -> None:
        stats[stat][field] += measure(result)

    return after


def _closure_before(stats, args: tuple) -> tuple:
    constraints = args[0]
    if not hasattr(constraints, "__len__"):
        constraints = list(constraints)
    stats["constraints.closure"]["eqs"] += len(constraints)
    return (constraints,) + args[1:]


def _report_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


# (stat, module, attribute, kept as a span, before-hook, after-hook)
TARGETS = [
    ("cli", "promisekit.cli", "main", True, None, None),
    ("dsl.lexer", "promisekit.dsl.lexer", "tokenize", True, None,
     _count("dsl.lexer:tokens", lambda r: len(r[0]))),
    ("dsl.parser", "promisekit.dsl.parser", "parse", True, None,
     _count("dsl.parser:diagnostics", lambda r: len(r.diagnostics))),
    ("dsl.resolver", "promisekit.dsl.resolver", "resolve", True, None,
     _count("dsl.resolver:diagnostics", lambda r: len(r.diagnostics))),
    ("model.build_graph", "promisekit.model", "build_graph", True, None,
     _count("model.build_graph:promises", lambda r: len(r.promises))),
    ("model.validate_autonomy", "promisekit.model", "validate_autonomy", True, None, None),
    ("constraints.closure", "promisekit.constraints", "closure", False, _closure_before, None),
    ("constraints.condition_satisfiable", "promisekit.constraints",
     "condition_satisfiable", False, None,
     _count("constraints.condition_satisfiable:true", bool)),
    ("constraints.mutually_exclusive", "promisekit.constraints", "mutually_exclusive",
     False, None, None),
    ("analysis.discover_roles", "promisekit.analysis", "discover_roles", True, None, None),
    ("analysis.detect_conflicts", "promisekit.analysis", "detect_conflicts", True, None,
     _count("analysis:findings", len)),
    ("analysis.derive_class_hierarchy", "promisekit.analysis", "derive_class_hierarchy",
     True, None, _count("analysis:findings", lambda r: len(r.findings))),
    ("analysis.check_is_a", "promisekit.analysis", "check_is_a", True, None,
     _count("analysis:findings", lambda r: 0 if r.is_a else 1)),
    ("analysis.extract_spanning_set", "promisekit.analysis", "extract_spanning_set",
     True, None, None),
    ("analysis.bundle_signature", "promisekit.analysis", "bundle_signature", False,
     None, None),
    ("report", "promisekit.report", "report_json", True, None,
     _count("report:bytes", _report_bytes)),
    ("report", "promisekit.report", "format_text", True, None,
     _count("report:bytes", _report_bytes)),
    ("report", "promisekit.report", "export_dot", True, None,
     _count("report:bytes", _report_bytes)),
]

GRAPH_SCANS = ("promises_from", "promises_to", "given_types", "channels")

# (metric, stat, field, unit); "s" and "self_s" are seconds per round.
LAYER_METRICS = [
    ("dsl.lexer.tokens", "dsl.lexer", "tokens", "count"),
    ("dsl.lexer.self_s", "dsl.lexer", "self_s", "s"),
    ("dsl.parser.self_s", "dsl.parser", "self_s", "s"),
    ("dsl.parser.diagnostics", "dsl.parser", "diagnostics", "count"),
    ("dsl.resolver.self_s", "dsl.resolver", "self_s", "s"),
    ("dsl.resolver.diagnostics", "dsl.resolver", "diagnostics", "count"),
    ("model.build_graph.self_s", "model.build_graph", "self_s", "s"),
    ("model.validate_autonomy.self_s", "model.validate_autonomy", "self_s", "s"),
    ("model.promises", "model.build_graph", "promises", "count"),
    ("model.graph_scans.calls", "model.graph_scans", "calls", "count"),
    ("model.graph_scans.s", "model.graph_scans", "s", "s"),
    ("constraints.closure.calls", "constraints.closure", "calls", "count"),
    ("constraints.closure.eqs", "constraints.closure", "eqs", "count"),
    ("constraints.closure.s", "constraints.closure", "s", "s"),
    ("constraints.condition_satisfiable.calls", "constraints.condition_satisfiable",
     "calls", "count"),
    ("constraints.condition_satisfiable.sat_ratio", "constraints.condition_satisfiable",
     "sat_ratio", "ratio"),
    ("constraints.mutually_exclusive.calls", "constraints.mutually_exclusive", "calls",
     "count"),
    ("constraints.mutually_exclusive.s", "constraints.mutually_exclusive", "s", "s"),
    ("analysis.discover_roles.self_s", "analysis.discover_roles", "self_s", "s"),
    ("analysis.detect_conflicts.self_s", "analysis.detect_conflicts", "self_s", "s"),
    ("analysis.derive_class_hierarchy.self_s", "analysis.derive_class_hierarchy",
     "self_s", "s"),
    ("analysis.check_is_a.self_s", "analysis.check_is_a", "self_s", "s"),
    ("analysis.extract_spanning_set.self_s", "analysis.extract_spanning_set", "self_s",
     "s"),
    ("analysis.bundle_signature.calls", "analysis.bundle_signature", "calls", "count"),
    ("analysis.bundle_signature.s", "analysis.bundle_signature", "s", "s"),
    ("analysis.findings", "analysis", "findings", "count"),
    ("report.self_s", "report", "self_s", "s"),
    ("report.bytes", "report", "bytes", "bytes"),
    ("cli.self_s", "cli", "self_s", "s"),
]


def _new_stats() -> defaultdict:
    return defaultdict(lambda: defaultdict(float))


class Tracer:
    def __init__(self) -> None:
        self.stats = _new_stats()
        self.spans: list[tuple] = []
        self.request: Optional[str] = None
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        self._installed = False
        self._plan()

    def _wrap(self, stat: str, fn: Callable, keep_span: bool,
              before: Optional[Callable], after: Optional[Callable]) -> Callable:
        perf = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self.stats, args)
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                entry = self.stats[stat]
                entry["calls"] += 1
                entry["s"] += duration
                entry["self_s"] += duration - frame[1]
                if keep_span:
                    self.spans.append((self.request, span_id,
                                       parent[0] if parent else None, stat, start, end))
            if after is not None:
                after(self.stats, result)
            return result

        return wrapper

    def _plan(self) -> None:
        """Find every binding of each traced function, once."""
        wrappers: dict[int, tuple] = {}
        for stat, module, attr, keep_span, before, after in TARGETS:
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrappers[id(fn)] = (fn, self._wrap(stat, fn, keep_span, before, after))
        for name, mod in sorted(sys.modules.items()):
            if name != "promisekit" and not name.startswith("promisekit."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))
        graph_cls = importlib.import_module("promisekit.model").PromiseGraph
        for method in GRAPH_SCANS:
            fn = graph_cls.__dict__.get(method)
            if fn is None:
                self.missing.append(f"PromiseGraph.{method}")
                continue
            wrapper = self._wrap("model.graph_scans", fn, False, None, None)
            self._patches.append((graph_cls, method, fn, wrapper))

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._installed = False

    def take(self) -> dict:
        """Return the stats gathered so far and start afresh."""
        stats, self.stats = self.stats, _new_stats()
        return stats


def layer_values(stats: dict) -> dict[str, float]:
    """One round's stats as per-layer metric values."""
    out = {}
    for metric, stat, field, _unit in LAYER_METRICS:
        entry = stats.get(stat, {})
        if field == "sat_ratio":
            calls = entry.get("calls", 0)
            out[metric] = entry.get("true", 0) / calls if calls else 0.0
        else:
            out[metric] = float(entry.get(field, 0))
    return out
