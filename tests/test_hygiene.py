"""Source hygiene: no module imports a name it never uses, no module
defines a private name it never uses, no module imports another
promisekit module's private name, only the span module builds tuples
without their class's constructor, no module names
``object.__setattr__``, no regular expression needs a newer Python than
3.10, only ``value`` and ``LineIndex`` name
``__hash__``, only ``constraints`` judges a pair of conditions, conjoins
conditions or builds a term partition, no module imports ``gc``, and no
module-level container outlives a run.

Package ``__init__`` modules are exempt from the import check, because their
imports are the public re-exports.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import promisekit
from promisekit import cli, corpus
from promisekit.analysis import detect_conflicts
from promisekit.dsl import LineIndex, parse, resolve, SourceSpan

PACKAGE = Path(promisekit.__file__).resolve().parent


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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """In a fresh interpreter, ``import promisekit.cli`` leaves
    ``dataclasses`` and ``inspect`` unloaded, and no promisekit class has
    dataclass fields.  ``-S`` keeps ``site`` from loading anything first."""
    code = (
        "import sys, promisekit.cli\n"
        "mods = [m for n, m in list(sys.modules.items()) if n.split('.')[0] == 'promisekit']\n"
        "built = {f'{c.__module__}.{c.__name__}' for m in mods for c in vars(m).values()\n"
        "         if isinstance(c, type) and hasattr(c, '__dataclass_fields__')}\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), sorted(built))\n"
    )
    src = str(PACKAGE.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[] []\n"


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
