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
