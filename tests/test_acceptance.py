"""Acceptance gate: eight criteria, each printing one PASS/FAIL line.

Tolerances are pinned in the assertions: criteria 1 and 2 must finish in
under 1 second, criterion 4 in under 30 seconds with >= 1000 random
instances at 100% oracle agreement, criterion 7 uses exactly 100 span-
checked mutations, and criterion 8 demands byte-identical reruns.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import promisekit
from promisekit import corpus
from promisekit.analysis import (
    check_dispatch_pattern,
    check_extension,
    check_is_a,
    derive_class_hierarchy,
    detect_conflicts,
    discover_roles,
    RESTRICTED,
    Severity,
)
from promisekit.cli import main
from promisekit.constraints import (
    closure,
    entails,
    mutually_exclusive,
    reduce,
    satisfiable,
)
from promisekit.dsl import parse, resolve, tokenize
from promisekit.errors import UnsatisfiableError
from promisekit.model import (
    Attribute,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    NamedConst,
    NumConst,
    Parameter,
)

from bruteforce import (
    oracle_entails,
    oracle_mutually_exclusive,
    oracle_same_class_pairs,
    oracle_satisfiable,
)
from loaders import cli_invocations, load_corpus, load_text, run_cli


def verdict_line(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. Square/Rectangle: structural extension yes, behavioral stand-in no
# ---------------------------------------------------------------------------

def test_criterion_1_square_rectangle():
    started = time.monotonic()
    graph = load_corpus("geometry.pml")
    square = graph.bundle("Square")
    rectangle = graph.bundle("Rectangle")

    extends = check_extension(square, rectangle)
    verdict = check_is_a(square, rectangle)
    elapsed = time.monotonic() - started

    named_merge = any(
        "width" in d and "height" in d for d in verdict.details
    )
    ok = (
        extends is True
        and verdict.outcome == RESTRICTED
        and named_merge
        and elapsed < 1.0
    )
    verdict_line(
        1,
        ok,
        f"extension={extends}, is-a={verdict.outcome} "
        f"({', '.join(verdict.details)}); {elapsed:.3f}s < 1s",
    )
    assert extends is True
    assert verdict.outcome == RESTRICTED
    assert named_merge, verdict.details
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. Bank: promises one-for-one, two roles, exclusive gates, account split
# ---------------------------------------------------------------------------

BANK_PROMISES = [
    "account -> person: +account_functions",
    "account -> person: +keep_money_safe",
    "account -> person: U(cash_payment)",
    "account -> person: U(customer)",
    "account -> person: U(employee)",
    "account -> person: U(name)",
    "account -> person: U(priv_update) if name != owner and employee",
    "account -> person: U(use_account) if name == owner and not employee",
    "person -> account: +cash_payment",
    "person -> account: +customer",
    "person -> account: +employee",
    "person -> account: +name=identity",
]


def test_criterion_2_bank_model():
    started = time.monotonic()
    graph = load_corpus("bank.pml")

    promises = sorted(p.formatted() for p in graph.promises)
    roles = {r.label: r.members for r in discover_roles(graph)}
    expected_roles = {
        "gives:cash_payment+customer+employee+name": ("person",),
        "gives:account_functions+keep_money_safe": ("account",),
    }

    gates = [
        p.body.condition
        for p in graph.promises_from("account")
        if not p.body.condition.is_empty
    ]
    exclusive = (
        len(gates) == 2 and mutually_exclusive(gates[0], gates[1]).exclusive
    )

    hierarchy = derive_class_hierarchy(graph)
    by_role = {rc.role.members: rc for rc in hierarchy.classes}
    account = by_role[("account",)]
    person = by_role[("person",)]
    split = (
        len(account.subtypes) == 2
        and person.subtypes == ()
        and hierarchy.findings == ()
    )
    elapsed = time.monotonic() - started

    ok = (
        promises == BANK_PROMISES
        and roles == expected_roles
        and exclusive
        and split
        and elapsed < 1.0
    )
    verdict_line(
        2,
        ok,
        f"{len(promises)}/12 promises, {len(roles)} roles, gates exclusive="
        f"{exclusive}, account subtypes={len(account.subtypes)}, person "
        f"subtypes={len(person.subtypes)}; {elapsed:.3f}s < 1s",
    )
    assert promises == BANK_PROMISES
    assert roles == expected_roles
    assert exclusive
    assert split
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Flaw detection: unconditional privileged acceptance must be noticed
# ---------------------------------------------------------------------------

def test_criterion_3_flaw_detection():
    pristine = detect_conflicts(load_corpus("bank.pml"))
    mutated = load_text(
        corpus.read("bank.pml") + "\naccount -> person: use priv_update;\n"
    )
    findings = detect_conflicts(mutated)
    ok = pristine == [] and len(findings) >= 1
    codes = sorted({f.code for f in findings})
    verdict_line(
        3,
        ok,
        f"clean model: {len(pristine)} findings; mutated model: "
        f"{len(findings)} finding(s) {codes} >= 1",
    )
    assert pristine == []
    assert len(findings) >= 1


# ---------------------------------------------------------------------------
# 4. Constraint engine vs brute force
# ---------------------------------------------------------------------------

TERM_POOL = [
    Attribute("width"),
    Attribute("height"),
    Attribute("depth"),
    Attribute("name"),
    Parameter("a"),
    Parameter("b"),
    NamedConst("k"),
    NumConst(0),
    NumConst(1),
    NumConst(2),
]

FLAG_NAMES = ["p", "q", "r"]
CMP_TERMS = [
    Attribute("name"),
    Attribute("width"),
    NamedConst("owner"),
    Parameter("a"),
    NumConst(0),
    NumConst(1),
]


def random_instance(rng: random.Random):
    terms = rng.sample(TERM_POOL, rng.randint(2, 6))
    eqs = [
        EqConstraint(*rng.sample(terms, 2)) for _ in range(rng.randint(0, 5))
    ]
    neqs = [
        tuple(rng.sample(terms, 2)) for _ in range(rng.randint(0, 2))
    ]
    return terms, eqs, neqs


def random_condition(rng: random.Random, neq_budget: list[int]) -> Condition:
    literals: list = []
    for _ in range(rng.randint(0, 2)):
        literals.append(FlagLiteral(rng.choice(FLAG_NAMES), rng.random() < 0.4))
    if rng.random() < 0.8:
        lhs, rhs = rng.sample(CMP_TERMS, 2)
        if neq_budget[0] > 0 and rng.random() < 0.5:
            neq_budget[0] -= 1
            literals.append(CmpLiteral(lhs, "neq", rhs))
        else:
            literals.append(CmpLiteral(lhs, "eq", rhs))
    return Condition(frozenset(literals))


def test_criterion_4_oracle_agreement():
    started = time.monotonic()
    rng = random.Random(0x5EED)
    instances = 1200
    checked = {"satisfiable": 0, "closure": 0, "entails": 0}

    for _ in range(instances):
        terms, eqs, neqs = random_instance(rng)

        assert satisfiable(eqs, neqs) == oracle_satisfiable(eqs, neqs)
        checked["satisfiable"] += 1

        if satisfiable(eqs):
            part = closure(eqs)
            mentioned = [t for cls in part.classes for t in cls]
            got = {
                frozenset((s, t))
                for i, s in enumerate(mentioned)
                for t in mentioned[i + 1 :]
                if part.same_class(s, t)
            }
            assert got == oracle_same_class_pairs(eqs)
            checked["closure"] += 1

            goal = EqConstraint(*rng.sample(terms, 2))
            if satisfiable([goal]):
                assert entails(eqs, [goal]) == oracle_entails(eqs, goal)
            else:
                try:
                    entails(eqs, [goal])
                    raise AssertionError("unsatisfiable goal must be rejected")
                except UnsatisfiableError:
                    pass
            checked["entails"] += 1

    pairs = 1000
    for _ in range(pairs):
        budget = [2]
        c1 = random_condition(rng, budget)
        c2 = random_condition(rng, budget)
        assert (
            mutually_exclusive(c1, c2).exclusive
            == oracle_mutually_exclusive(c1, c2)
        )

    elapsed = time.monotonic() - started
    ok = instances >= 1000 and elapsed < 30.0
    verdict_line(
        4,
        ok,
        f"{instances} constraint instances (sat={checked['satisfiable']}, "
        f"closure={checked['closure']}, entails={checked['entails']}) and "
        f"{pairs} exclusivity pairs at 100% agreement; {elapsed:.1f}s < 30s",
    )
    assert instances >= 1000
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. Reduction fidelity
# ---------------------------------------------------------------------------

def observable_closure_preserved(eqs) -> bool:
    reduced = reduce(eqs)
    mentioned = [t for c in eqs for t in c.terms()]
    before = closure(eqs)
    after = closure(list(reduced), extra_terms=mentioned)
    for i, s in enumerate(mentioned):
        for t in mentioned[i + 1 :]:
            if isinstance(s, Parameter) or isinstance(t, Parameter):
                continue
            if before.same_class(s, t) != after.same_class(s, t):
                return False
    return True


def test_criterion_5_reduction():
    width, height = Attribute("width"), Attribute("height")
    w, h = Parameter("w"), Parameter("h")
    got = reduce([EqConstraint(width, w), EqConstraint(height, h), EqConstraint(w, h)])

    params = {t for c in got for t in c.terms() if isinstance(t, Parameter)}
    shape_ok = len(params) == 1 and got == frozenset(
        {EqConstraint(width, next(iter(params))), EqConstraint(height, next(iter(params)))}
    )

    rng = random.Random(0xD0C)
    preserved = 0
    total = 1000
    for _ in range(total):
        _, eqs, _ = random_instance(rng)
        try:
            if observable_closure_preserved(eqs):
                preserved += 1
        except UnsatisfiableError:
            preserved += 1  # rejection is the contract for unsatisfiable input

    ok = shape_ok and preserved == total
    verdict_line(
        5,
        ok,
        f"canonical form {{width=$p, height=$p}} up to renaming: {shape_ok}; "
        f"closure preserved on {preserved}/{total} random instances",
    )
    assert shape_ok, got
    assert preserved == total


# ---------------------------------------------------------------------------
# 6. Dispatch pattern and its three defects
# ---------------------------------------------------------------------------

def test_criterion_6_dispatch():
    source = corpus.read("dispatch.pml")
    clean = check_dispatch_pattern(
        load_corpus("dispatch.pml"), "provider", "consumer", "subtype"
    )

    def mutate(old: str, new: str):
        text = source.replace(old, new)
        assert text != source
        resolved = resolve(parse(text, "dispatch.pml").ast)
        assert resolved.ok
        return check_dispatch_pattern(
            resolved.graph, "provider", "consumer", "subtype"
        )

    reports = {
        "missing-give": mutate("consumer -> provider: give subtype;\n", ""),
        "missing-use": mutate("provider -> consumer: use subtype;\n", ""),
        "overlap": mutate(
            "bundle ClassicApi if not subtype", "bundle ClassicApi if subtype"
        ),
    }
    codes = {key: tuple(f.code for f in rep.findings) for key, rep in reports.items()}
    flat = [c for cs in codes.values() for c in cs]
    all_pattern_errors = all(
        f.severity == Severity.PATTERN_ERROR
        for rep in reports.values()
        for f in rep.findings
    )
    ok = (
        clean.ok
        and all(len(cs) == 1 for cs in codes.values())
        and len(set(flat)) == 3
        and all_pattern_errors
    )
    verdict_line(
        6,
        ok,
        f"fixture ok={clean.ok}; mutation codes "
        f"{sorted(set(flat))} distinct={len(set(flat))}/3",
    )
    assert clean.ok
    assert len(set(flat)) == 3
    assert all(len(cs) == 1 for cs in codes.values()), codes
    assert all_pattern_errors


# ---------------------------------------------------------------------------
# 7. DSL robustness: printer fixpoint, 100 span-checked mutations, exit codes
# ---------------------------------------------------------------------------

def print_parse_fixpoint(name: str) -> bool:
    from promisekit.dsl import print_model

    first = parse(corpus.read(name), name)
    assert first.ok
    printed = print_model(first.ast)
    second = parse(printed, name)
    assert second.ok
    return print_model(second.ast) == printed


def mutation_sites():
    """Single-token mutations: overwrite one token with an illegal character.

    Every produced text must provoke a diagnostic whose span covers the
    mutated offset, so the check is exact rather than statistical.
    """
    per_file = []
    for name in corpus.names():
        text = corpus.read(name)
        tokens, diags = tokenize(text, name)
        assert diags == []
        spots = [(name, text, start, end) for kind, _, _, start, end in tokens if kind != "eof"]
        per_file.append(spots)
    rng = random.Random(0xBAD)
    for spots in per_file:
        rng.shuffle(spots)
    merged = []
    index = 0
    while len(merged) < 100:
        spots = per_file[index % len(per_file)]
        if spots:
            merged.append(spots.pop())
        index += 1
    return merged


def test_criterion_7_dsl_robustness(tmp_path, capsys):
    fixpoints = all(print_parse_fixpoint(name) for name in corpus.names())

    mutations = mutation_sites()
    overlapping = 0
    for name, text, start, end in mutations:
        mutated = text[:start] + "?" + text[end:]
        result = parse(mutated, name)
        hits = [
            d
            for d in result.diagnostics
            if d.span.overlaps_offsets(start, start + 1)
        ]
        if hits and not result.ok:
            overlapping += 1

    # exit-code contract on representative invocations
    with contextlib.redirect_stdout(io.StringIO()):
        clean_exit = main(["check"] + [str(corpus.path(n)) for n in corpus.names()])
        sample = tmp_path / "mutant.pml"
        name, text, start, end = mutations[0]
        sample.write_text(text[:start] + "?" + text[end:])
        error_exit = main(["check", str(sample)])
        overlap = tmp_path / "overlap.pml"
        overlap.write_text(
            corpus.read("bank.pml") + "\naccount -> person: use priv_update;\n"
        )
        finding_exit = main(["check", str(overlap)])
    with contextlib.redirect_stderr(io.StringIO()):
        usage_exit = main([])
    capsys.readouterr()

    exits = (clean_exit, finding_exit, error_exit, usage_exit)
    ok = fixpoints and overlapping == 100 and exits == (0, 1, 2, 3)
    verdict_line(
        7,
        ok,
        f"print-parse fixpoint on {len(corpus.names())} files: {fixpoints}; "
        f"{overlapping}/100 mutations diagnosed inside the mutated span; "
        f"exit codes (clean, findings, error, usage) = {exits}",
    )
    assert fixpoints
    assert overlapping == 100
    assert exits == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# 8. Determinism: every command, every fixture, byte-identical reruns
# ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    invocations = cli_invocations()
    stable = 0
    for cwd, argv in invocations:
        first = run_cli(cwd, argv)
        second = run_cli(cwd, argv)
        if first == second:
            stable += 1

    ok = stable == len(invocations)
    verdict_line(
        8,
        ok,
        f"{stable}/{len(invocations)} command invocations byte-identical "
        f"across consecutive runs",
    )
    assert stable == len(invocations)


# Runs each [directory, argv] pair read from stdin as JSON, printing
# [[exit code, stdout], ...].
_RUN_ALL = """
import contextlib, io, json, os, sys
from promisekit.cli import main
results = []
for cwd, argv in json.load(sys.stdin):
    os.chdir(cwd)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def test_output_does_not_depend_on_pythonhashseed():
    invocations = cli_invocations()
    src = str(Path(promisekit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL],
            input=json.dumps([[str(cwd), argv] for cwd, argv in invocations]),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": pythonpath},
            check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == len(invocations)
    assert runs[0] == runs[1]
