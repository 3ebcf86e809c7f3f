"""Source hygiene: no module imports a name it never uses, no module
defines a private name it never uses, no module imports another
promisekit module's private name, only the span module builds tuples
without their class's constructor, no module names
``object.__setattr__``, no regular expression needs a newer Python than
3.10, only ``value`` and ``LineIndex`` name ``__hash__``, only
``constraints`` judges a pair of conditions, conjoins conditions or builds
a term partition, only ``model`` spells a group or prints a condition,
no module imports ``gc``, importing the cli builds no argument parser and
loads neither ``json``, the printer, ``argparse`` nor ``gettext``, a ``pml``
process loads ``json`` only for ``--json`` and ``argparse`` only for help
and usage errors, every exported name resolves, every analyzer the
README describes exists, no module-level
container outlives a run, and every function in the package
runs in some ``pml`` command, demo or spanning-set call, or is listed with
the reason it stays.

Package ``__init__`` modules are exempt from the import check, because their
imports are the public re-exports.
"""
from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import promisekit
from promisekit import cli, corpus
from promisekit.analysis import detect_conflicts, extract_spanning_set
from promisekit.dsl import LineIndex, parse, resolve, SourceSpan

from loaders import CORPUS_DIR, INVALID_DIR, ISA_BUNDLES, load_corpus, run_cli, SHARED_DIR

PACKAGE = Path(promisekit.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level function, class or constant named ``_name``, with
    the line of its definition."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Each name the module reads, also inside a quoted annotation."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    # A quoted annotation such as -> "Bundle" uses the names inside it.
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue  # a Literal[...] value, not a type
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _used_names(tree)
        for name, line in sorted(_imported_names(tree).items()):
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert unused == []


def test_no_module_defines_an_unused_private_name():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _used_names(tree)
        for name, line in sorted(_private_definitions(tree).items()):
            if name not in used:
                unused.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_another_module():
    """A ``_name`` is its module's own: a name shared between modules is
    public.  Relative imports and ``promisekit`` imports are checked."""
    private = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").split(".")[0] == "promisekit"):
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.startswith("__"):
                    private.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert private == []


def _modules_naming(owner: str, attr: str) -> set[str]:
    """The modules whose code reads ``owner.attr``."""
    users = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == owner
            ):
                users.add(path.relative_to(PACKAGE).as_posix())
    return users


def test_only_the_span_module_skips_the_tuple_constructors():
    """``tuple.__new__`` skips the check in ``SourceSpan.__new__``; only the
    span module uses it, in ``make_span`` and ``SourceSpan.merge``, which
    check ``end < start`` themselves.  The lexer, the parser and
    ``ModelAst.span`` build spans through ``make_span``."""
    assert _modules_naming("tuple", "__new__") == {"dsl/diagnostics.py"}


def test_only_the_value_module_names_object_setattr():
    """No module names ``object.__setattr__``, ``value`` included: a
    constructor writes its fields through each slot's own descriptor, from
    ``Value._setters``, which skips the checks and the argument tuple of
    ``object.__setattr__``."""
    assert _modules_naming("object", "__setattr__") == set()


# Possessive quantifiers and atomic groups, which Python 3.10 rejects.
_NEWER_REGEX_SYNTAX = ("*+", "++", "?+", "}+", "(?>")


def test_no_pattern_needs_a_newer_re():
    """Every ``re.compile`` in the package takes a literal pattern that
    Python 3.10, the oldest supported version, can read: with an escaped
    character taken out, it holds no possessive quantifier and no atomic
    group."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "compile"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
            ):
                where = f"{path.relative_to(PACKAGE)}:{node.lineno}"
                pattern = node.args[0]
                assert isinstance(pattern, ast.Constant), f"{where}: pattern is not a literal"
                bare = re.sub(r"\\[\s\S]", "", pattern.value)
                found += [f"{where}: {s}" for s in _NEWER_REGEX_SYNTAX if s in bare]
    assert found == []


def _modules_binding(*names: str) -> set[str]:
    """The modules that name any of ``names``: as an import alias, a name,
    an attribute or a definition."""
    users = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            bound = {getattr(node, field, None) for field in ("name", "asname", "id", "attr")}
            if not bound.isdisjoint(names):
                users.add(path.relative_to(PACKAGE).as_posix())
    return users


def test_only_the_value_module_names_hash():
    """How a value hashes is written once: ``Value`` computes the hash of
    its compared key, or reads the one a shared class stored at
    construction.  The only other ``__hash__`` is ``LineIndex``'s, which is
    no value class."""
    assert _modules_binding("__hash__") == {"dsl/diagnostics.py", "value.py"}


def test_only_the_constraints_module_names_mutually_exclusive():
    """Every "can hold together" finding comes from
    ``constraints.pairwise_exclusive``, so no other module binds, calls or
    re-imports ``mutually_exclusive``; the package ``__init__`` re-exports
    it."""
    assert _modules_binding("mutually_exclusive") == {"__init__.py", "constraints.py"}


def test_only_the_constraints_module_conjoins_conditions():
    """Every question about conditions goes through one conjunction of
    compiled conditions, ``constraints._conjoin``: no other module splits a
    condition or conjoins compiled ones.  ``worlds`` reads compiled
    conditions off a ``ConditionTable`` and tests them through the table."""
    assert _modules_binding("split_condition", "_conjoin") == {"constraints.py"}


def test_only_the_model_module_spells_a_group():
    """A group's text is written in ``model`` alone: other modules build
    groups through ``derive_group`` and ``bundle_group`` and name them
    through ``group_label``, so no other string constant, f-string parts
    and docstrings included, holds ``bundle:`` or ``body:``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "bundle:" in node.value or "body:" in node.value:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_only_the_worlds_module_names_a_world():
    """A world is named in ``worlds`` alone: ``name_world`` writes
    ``" (when a & b)"`` from the conditions' ``Condition.text``, and every
    finding names its world through it or ``World.when``.  So no other
    module holds a string constant, f-string parts and docstrings included,
    with ``(when``, and no other f-string writes a value right after
    ``when ``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "worlds.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "(when" in node.value:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
            elif isinstance(node, ast.JoinedStr):
                for part, value in zip(node.values, node.values[1:]):
                    if (
                        isinstance(part, ast.Constant)
                        and part.value.endswith("when ")
                        and isinstance(value, ast.FormattedValue)
                    ):
                        found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []


def test_only_the_model_module_prints_a_condition():
    """How a condition prints is worked out in ``model`` alone, once per
    condition object: every other module reads ``Condition.text``, so none
    calls ``format_condition`` or ``format_literal``.  The package
    ``__init__`` re-exports ``format_condition`` without calling it."""
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("format_condition", "format_literal"):
                    callers.add(path.relative_to(PACKAGE).as_posix())
    assert callers == {"model.py"}


def test_only_the_constraints_module_builds_a_term_partition():
    """A partition is read off the union-find that ``closure`` builds, so no
    other module calls the ``TermPartition`` constructor."""
    builders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TermPartition":
                    builders.add(path.relative_to(PACKAGE).as_posix())
    assert builders == {"constraints.py"}


def test_no_module_uses_dataclasses_or_compiles_code():
    """Value classes are plain ``promisekit.value.Value`` subclasses: no
    module imports ``dataclasses`` or calls ``exec``, ``eval`` or
    ``compile``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id] if node.func.id in ("exec", "eval", "compile") else []
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] in ("dataclasses", "exec", "eval", "compile")
            ]
    assert found == []


def test_no_module_imports_gc():
    """The program allocates less rather than tuning the collector: no
    process-wide GC setting, so no module imports ``gc``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] == "gc"
            ]
    assert found == []


def _fresh(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python -S ARGS`` in a fresh interpreter that imports this package.
    ``-S`` keeps ``site`` from loading anything first."""
    src = str(PACKAGE.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=60,
    )


def _run_fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter (see ``_fresh``)."""
    done = _fresh(["-c", code])
    done.check_returncode()
    return done.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, ``import promisekit.cli`` leaves
    ``dataclasses`` and ``inspect`` unloaded, and no promisekit class has
    dataclass fields."""
    code = (
        "import sys, promisekit.cli\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.split('.')[0] == 'promisekit']\n"
        "built = {f'{c.__module__}.{c.__name__}' for m in mods for c in vars(m).values()\n"
        "         if isinstance(c, type) and hasattr(c, '__dataclass_fields__')}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), sorted(built))\n"
    )
    assert _run_fresh(code) == "[] []\n"


#: Modules that a ``pml`` process loads only when its command uses them:
#: ``argparse``, with the ``gettext`` it imports, only for help and usage
#: errors.
_LOADED_ON_USE = ("argparse", "gettext", "json", "promisekit.dsl.printer")


def test_importing_the_cli_loads_neither_json_nor_the_printer():
    """Nor ``argparse`` and ``gettext``."""
    code = f"import sys, promisekit.cli\nprint(sorted(set({_LOADED_ON_USE}) & set(sys.modules)))\n"
    assert _run_fresh(code) == "[]\n"


def _fresh_pml(argv: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, str, str]:
    """``pml ARGV`` through ``cli.entry`` in a fresh interpreter (see
    ``_fresh``): the process, its stderr, and the ``_LOADED_ON_USE`` modules
    it loaded, as the line that the process prints last on stderr."""
    code = (
        "import sys, promisekit.cli\n"
        "try:\n"
        "    promisekit.cli.entry()\n"
        "finally:\n"
        f"    print(sorted(set({_LOADED_ON_USE}) & set(sys.modules)), file=sys.stderr)\n"
    )
    done = _fresh(["-c", code, *argv], cwd=cwd)
    *stderr, last = done.stderr.splitlines(keepends=True)
    return done, "".join(stderr), last


_FRESH_RUNS = [
    (CORPUS_DIR, ["check", "bank.pml"], []),
    (CORPUS_DIR, ["check", "bank.pml", "--json"], ["json"]),
    (SHARED_DIR, ["check", "overlaps.pml", "--json"], ["json"]),
]


@pytest.mark.parametrize(
    "cwd, argv, loaded", _FRESH_RUNS, ids=[" ".join(argv) for _, argv, _ in _FRESH_RUNS]
)
def test_a_pml_process_loads_json_only_for_json_output(cwd, argv, loaded):
    """A fresh ``pml`` process loads ``json`` for ``--json`` output only, and
    the printer never, and writes what the golden file records.  In-process
    runs cannot see the import that ``--json`` makes: pytest has loaded
    ``json`` before them."""
    done, stderr, last = _fresh_pml(argv, cwd)
    assert last == f"{loaded}\n"
    golden = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text("utf-8"))
    run = {"argv": argv, "exit": done.returncode, "stdout": done.stdout, "stderr": stderr}
    assert run in golden


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["check"], 3)], ids=["help", "check"])
def test_a_pml_process_loads_argparse_for_help_and_usage_errors(argv, code):
    """The parser built whole answers ``--help`` and a usage error, so a
    fresh ``pml`` process loads ``argparse`` and ``gettext`` for them."""
    done, stderr, last = _fresh_pml(argv, CORPUS_DIR)
    assert (done.returncode, last) == (code, "['argparse', 'gettext']\n")
    assert (done.stdout if code == 0 else stderr).startswith("usage: pml")


def test_every_exported_name_resolves():
    """The package and ``promisekit.dsl`` export every name in ``__all__``,
    ``print_model`` too, which ``promisekit.dsl`` loads on first use."""
    from promisekit import dsl
    from promisekit.dsl import printer

    for module in (promisekit, dsl):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace: dict = {}
    exec("from promisekit.dsl import *", namespace)
    assert namespace["print_model"] is dsl.print_model is printer.print_model
    assert set(dsl.__all__) <= set(dir(dsl))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dsl.no_such_name


def test_every_analyzer_the_readme_describes_exists():
    """Each name in a ``- **`name`**`` bullet of the README's "Analyzers in
    brief" section is an attribute of ``promisekit.analysis``, so a deleted
    analyzer cannot stay documented."""
    from promisekit import analysis

    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Analyzers in brief\n", 1)[1].split("\n## ", 1)[0]
    names = [
        name
        for line in section.splitlines() if line.startswith("- **`")
        for name in re.findall(r"\*\*`(\w+)`\*\*", line)
    ]
    assert names
    assert [name for name in names if not hasattr(analysis, name)] == []


def test_importing_the_cli_builds_no_parser():
    """In a fresh interpreter, ``import promisekit.cli`` constructs no
    ``ArgumentParser`` and binds none at a module's top level: a run builds
    the parser it uses."""
    code = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(type(self).__name__)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import promisekit.cli\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.split('.')[0] == 'promisekit']\n"
        "bound = [a for m in mods for a, v in vars(m).items()\n"
        "         if isinstance(v, argparse.ArgumentParser)]\n"
        "print(built, bound)\n"
    )
    assert _run_fresh(code) == "[] []\n"


def test_spans_keep_their_checks():
    with pytest.raises(ValueError, match="must not end before it starts"):
        SourceSpan("f", 5, 3, LineIndex(""))
    lines = LineIndex("abcdefghij")
    a, b = SourceSpan("f", 6, 9, lines), SourceSpan("f", 1, 2, lines)
    for merged in (a.merge(b), b.merge(a)):
        assert (merged.start_offset, merged.end_offset) == (1, 9)
        assert type(merged) is SourceSpan and merged.lines is lines


def _module_container_sizes() -> dict[str, int]:
    """The size of each dict, list and set bound at a promisekit module's
    top level, apart from the interpreter's own ``__dunder__`` names."""
    return {
        f"{name}.{attr}": len(value)
        for name, module in sorted(sys.modules.items())
        if name == "promisekit" or name.startswith("promisekit.")
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not attr.startswith("__")
    }


def test_no_module_level_container_outlives_a_run(tmp_path):
    """Memos belong to one call: two rounds of ``pml check`` and
    ``pml classes`` on every model, and of ``pml isa`` on geometry and on
    the ring's gated bundle, leave every module-level container as it was.
    The ring model's names are this test's own, so a memo that earlier
    tests filled would still grow."""
    ring = tmp_path / "ring.pml"
    ring.write_text(
        "agent hyg_a, hyg_b, hyg_c;\ntype hyg_token: num;\ntype hyg_load: num;\n"
        "flag hyg_ready;\n"
        "bundle HygFeed { give hyg_token = $t; give hyg_load = $t if hyg_ready; }\n"
        + "".join(
            f"{a} -> {b}: bundle HygFeed\n{a} -> {b}: give hyg_load = $x;\n"
            f"{b} -> {a}: give hyg_ready;\n"
            for a, b in (("hyg_a", "hyg_b"), ("hyg_b", "hyg_c"), ("hyg_c", "hyg_a"))
        ),
        encoding="utf-8",
    )
    paths = [str(corpus.path(name)) for name in corpus.names()] + [str(ring)]
    before = _module_container_sizes()
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(2):
            for path in paths:
                assert cli.main(["check", path]) in (0, 1)
                assert cli.main(["classes", path]) in (0, 1)
            geometry = str(corpus.path("geometry.pml"))
            assert cli.main(["isa", geometry, "Square", "Rectangle"]) == 1
            assert cli.main(["isa", str(ring), "HygFeed", "HygFeed"]) == 0
    after = _module_container_sizes()
    assert {k: (v, after.get(k)) for k, v in before.items() if after.get(k) != v} == {}
    assert sorted(set(after) - set(before)) == []


def test_conflict_detection_keeps_no_memo_between_calls():
    """``detect_conflicts`` shares verdicts per channel shape within one
    call only: two ring models under names of their own leave every
    module-level container as it was."""

    def ring(tag: str) -> str:
        agents = [f"{tag}{i}" for i in range(4)]
        lines = [
            f"agent {', '.join(agents)};", f"type {tag}_token: num;",
            f"type {tag}_load: num;", f"flag {tag}_ready;",
            f"bundle {tag}_Feed {{ give {tag}_token = $t; give {tag}_load = $t if {tag}_ready; }}",
        ]
        for a, b in zip(agents, agents[1:] + agents[:1]):
            lines += [
                f"{a} -> {b}: bundle {tag}_Feed", f"{a} -> {b}: give {tag}_load = $x;",
                f"{b} -> {a}: give {tag}_ready;",
            ]
        return "\n".join(lines) + "\n"

    graphs = [resolve(parse(ring(tag), f"{tag}.pml").ast).graph for tag in ("mem_p", "mem_q")]
    before = _module_container_sizes()
    for graph in graphs:
        assert [f.code for f in detect_conflicts(graph)].count("channel-restricted") == 4
    after = _module_container_sizes()
    assert {k: (v, after.get(k)) for k, v in before.items() if after.get(k) != v} == {}
    assert sorted(set(after) - set(before)) == []


_CONSTRUCT = "a paper construct that `pml check` does not run yet (ROADMAP item 18)"
_TRACED = "bound by the benchmark's tracer (perfbench/tracer.py)"
_PRINTER = "the print/parse round trip the README documents"

#: The functions of the package that no run in
#: ``test_every_function_runs_or_is_listed`` reaches, each with the one
#: reason it stays.  An entry that runs, or no longer exists, fails the
#: test, so the table only shrinks.
UNREACHED = {
    "analysis.check_override_policy": _CONSTRUCT,
    "analysis._bundle_refs": "cites the bundles of a check_override_policy finding",
    "analysis._literal_sig": "a gated body's signature, reached through check_extension",
    "constraints.condition_satisfiable": _TRACED,
    "model.PromiseGraph.promises_to": _TRACED,
    "model.PromiseGraph._incoming": "the index behind promises_to",
    "model.give": "library API for building bodies, in the README",
    "model.use": "library API for building bodies, in the README",
    "model.link": "library API for building bodies, in the README",
    "corpus.names": "library API listing the shipped models, in the README",
    "dsl.diagnostics.SourceSpan.merge": "library API for spans, in the README",
    "dsl.diagnostics.SourceSpan.overlaps_offsets": "library API for spans, in the README",
    "dsl.printer.print_model": _PRINTER,
    "dsl.printer._decl": _PRINTER,
    "dsl.printer._body": _PRINTER,
    "dsl.printer._condition": _PRINTER,
    "dsl.printer._term": _PRINTER,
    "dsl.lexer._matched_pairs": "only a number whose fraction runs past a split part",
    "cli.entry": "the console script, which exits the process",
}


def _package_functions() -> dict[tuple[str, int], str]:
    """Each function and method that the package defines, nested ones
    included and dunders not, named ``module.qualname`` and keyed by its
    file and the first line of its code object (a decorator's line, when
    it has one)."""
    found: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, module: str, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = f"{module}.{name}"
                visit(child, module, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, path, prefix + child.name + ".")
            else:
                visit(child, module, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        if module.endswith("__init__"):
            module = module[: -len(".__init__")] or "promisekit"
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        visit(tree, module, str(path), "")
    return found


def test_every_function_runs_or_is_listed():
    """Under ``sys.setprofile``: every ``pml`` command (``check``,
    ``check --json``, ``roles``, ``classes``, ``classes --json``, ``dot``)
    on the corpus and on every golden model, two usage errors, which the
    parser built whole answers (``check`` with no file and an unknown
    command), ``isa`` on each bundle pair of geometry and dispatch, the four
    demos, and ``extract_spanning_set`` on the corpus graphs.  A function that none of
    them runs is code that nothing reachable uses, unless ``UNREACHED``
    gives the reason it stays."""
    commands = (["check"], ["check", "--json"], ["roles"], ["classes"],
                ["classes", "--json"], ["dot"])
    models = [(CORPUS_DIR, name) for name in corpus.names()] + [
        (directory, path.name)
        for directory in (INVALID_DIR, SHARED_DIR)
        for path in sorted(directory.glob("*.pml"))
    ]
    runs = [(CORPUS_DIR, ["check"]), (CORPUS_DIR, ["frobnicate"])]
    runs += [(d, [argv[0], name, *argv[1:]]) for d, name in models for argv in commands]
    runs += [
        (CORPUS_DIR, ["isa", name, child, parent])
        for name, bundles in ISA_BUNDLES.items()
        for child, parent in itertools.permutations(bundles, 2)
    ]
    graphs = [load_corpus(name) for name in corpus.names()]
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 4

    seen: set = set()
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code))
    try:
        for cwd, argv in runs:
            run_cli(cwd, argv)
        with contextlib.redirect_stdout(io.StringIO()):
            for demo in demos:
                runpy.run_path(str(demo), run_name="__main__")
        for graph in graphs:
            extract_spanning_set(graph)
    finally:
        sys.setprofile(previous)

    ran = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    unreached = {name for key, name in _package_functions().items() if key not in ran}
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == []
