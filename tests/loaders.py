"""Shared helpers: texts through the full pipeline into graphs, and
``pml`` runs on the shipped corpus."""
from __future__ import annotations

import contextlib
import io
import itertools
import os
from pathlib import Path

from promisekit import corpus
from promisekit.cli import main
from promisekit.dsl import parse, resolve
from promisekit.model import PromiseGraph

CORPUS_DIR = Path(corpus.__file__).parent

#: Bundles of one model that ``pml isa`` judges, each ordered pair of them.
ISA_BUNDLES = {
    "geometry.pml": ("Rectangle", "Square"),
    "dispatch.pml": ("BaseApi", "ClassicApi", "ExtendedApi"),
}


def load_text(text: str, name: str = "m.pml") -> PromiseGraph:
    """Parse + resolve or fail loudly with the diagnostics."""
    parsed = parse(text, name)
    assert parsed.ok, [d.formatted() for d in parsed.diagnostics]
    resolved = resolve(parsed.ast)
    assert resolved.ok, [d.formatted() for d in resolved.diagnostics]
    return resolved.graph


def load_corpus(name: str) -> PromiseGraph:
    return load_text(corpus.read(name), name)


def cli_invocations() -> list[list[str]]:
    """Every ``pml`` command on every corpus model, paths relative to the
    corpus directory."""
    runs = []
    for name in corpus.names():
        for command in ("check", "roles", "classes"):
            runs += [[command, name], [command, name, "--json"]]
        runs.append(["dot", name])
        for child, parent in itertools.permutations(ISA_BUNDLES.get(name, ()), 2):
            isa = ["isa", name, child, parent]
            runs += [isa, [*isa, "--json"]]
    return runs


def run_cli(argv: list[str]) -> dict:
    """One in-process ``pml`` run in the corpus directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS_DIR)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {
        "argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()
    }
