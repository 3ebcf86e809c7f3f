"""The benchmark's tracer still finds every function it times.

``perfbench/tracer.py`` times each layer from outside the program, by
rebinding the functions it names wherever promisekit binds them.  A name it
cannot find, or a call that no longer goes through a rebound name, would
leave a per-layer metric at zero without any error.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from promisekit import cli, corpus
from promisekit.model import PromiseGraph

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_has_a_patched_binding():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    assert tracer.missing == []
    patched = {(id(owner), attr): original for owner, attr, original, _ in tracer._patches}
    originals = {id(original) for original in patched.values()}
    unbound = [
        f"{module}.{attr}"
        for _, module, attr, *_ in tracer_module.TARGETS
        if id(getattr(importlib.import_module(module), attr)) not in originals
    ]
    assert unbound == []
    assert [
        method for method in tracer_module.GRAPH_SCANS
        if (id(PromiseGraph), method) not in patched
    ] == []


def test_a_traced_check_times_the_front_end():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # Through the module attribute, which the tracer rebinds.
            assert cli.main(["check", str(corpus.path("bank.pml"))]) == 0
    finally:
        tracer.uninstall()
    values = tracer_module.layer_values(tracer.take())
    assert values["dsl.lexer.tokens"] > 0
    for layer in ("dsl.lexer", "dsl.parser", "dsl.resolver", "model.build_graph", "cli"):
        assert values[f"{layer}.self_s"] > 0, layer


@pytest.mark.parametrize(
    "argv, analyzer",
    [
        (["roles", "bank.pml"], "analysis.discover_roles"),
        (["classes", "bank.pml", "--json"], "analysis.derive_class_hierarchy"),
        (["isa", "geometry.pml", "Square", "Rectangle"], "analysis.check_is_a"),
        (["dot", "bank.pml"], None),
    ],
    ids=["roles", "classes-json", "isa", "dot"],
)
def test_each_one_file_command_times_its_analyzer_and_report(argv, analyzer):
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    argv = [argv[0], str(corpus.path(argv[1])), *argv[2:]]
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) in (0, 1)
    finally:
        tracer.uninstall()
    values = tracer_module.layer_values(tracer.take())
    if analyzer is not None:
        assert values[f"{analyzer}.self_s"] > 0
    assert values["report.bytes"] > 0
