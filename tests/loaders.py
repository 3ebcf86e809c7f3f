"""Shared helpers: texts through the full pipeline into graphs, and
``pml`` runs on the shipped corpus and on the invalid models."""
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
#: Small models that each show one diagnostic code, or one defect.
INVALID_DIR = Path(__file__).parent / "golden" / "invalid"
#: Models whose channels share conditions: one bundle's, or one pair.
SHARED_DIR = Path(__file__).parent / "golden" / "shared"

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


def cli_invocations() -> list[tuple[Path, list[str]]]:
    """Every ``pml`` command on every corpus model, ``check`` on every
    invalid model, ``check`` and ``classes`` on every shared-condition
    model, the one-file commands on a model that does not parse and on one
    that does not resolve, and ``dot`` on a model with a warning, each with
    the directory it runs in: file paths are relative to it."""
    runs = []
    for name in corpus.names():
        argvs = []
        for command in ("check", "roles", "classes"):
            argvs += [[command, name], [command, name, "--json"]]
        argvs.append(["dot", name])
        for child, parent in itertools.permutations(ISA_BUNDLES.get(name, ()), 2):
            isa = ["isa", name, child, parent]
            argvs += [isa, [*isa, "--json"]]
        runs += [(CORPUS_DIR, argv) for argv in argvs]
    model_dirs = (INVALID_DIR, ("check",)), (SHARED_DIR, ("check", "classes"))
    for directory, commands in model_dirs:
        for path in sorted(directory.glob("*.pml")):
            for command in commands:
                argv = [command, path.name]
                runs += [(directory, argv), (directory, [*argv, "--json"])]
    for name in ("e-parse-001.pml", "e-resolve-001.pml"):
        for argv in (["roles"], ["classes"], ["isa", "A", "B"], ["dot"]):
            runs.append((INVALID_DIR, [argv[0], name, *argv[1:]]))
    runs.append((INVALID_DIR, ["dot", "w-autonomy-001.pml"]))
    return runs


def run_cli(cwd: Path, argv: list[str]) -> dict:
    """One in-process ``pml`` run in the directory ``cwd``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(saved)
    return {
        "argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()
    }
