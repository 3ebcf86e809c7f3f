"""Constraint engine: hand-computed frozen cases, oracle agreement, properties."""
from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import promisekit.constraints
from promisekit.analysis import detect_conflicts, finding_sort_key
from promisekit.constraints import (
    closure,
    condition_satisfiable,
    ConditionTable,
    entails,
    mutually_exclusive,
    pairwise_exclusive,
    reduce,
    satisfiable,
)
from promisekit.errors import UnsatisfiableError
from promisekit.model import (
    ALWAYS,
    Attribute,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    format_term,
    is_constant,
    NamedConst,
    NumConst,
    Parameter,
    PromiseGraph,
    StrConst,
)

from bruteforce import (
    oracle_conditions_satisfiable,
    oracle_entails,
    oracle_mutually_exclusive,
    oracle_same_class_pairs,
    oracle_satisfiable,
    split_condition,
)
from loaders import load_text

WIDTH = Attribute("width")
HEIGHT = Attribute("height")
DEPTH = Attribute("depth")
W = Parameter("w")
H = Parameter("h")
OWNER = NamedConst("owner")
NAME = Attribute("name")


def eq(a, b) -> EqConstraint:
    return EqConstraint(a, b)


# ---------------------------------------------------------------------------
# Closure and satisfiability: frozen cases
# ---------------------------------------------------------------------------

class TestClosure:
    def test_empty_input_has_no_classes(self):
        assert closure([]).classes == ()

    def test_chain_merges_into_one_class(self):
        part = closure([eq(WIDTH, W), eq(W, H), eq(H, HEIGHT)])
        assert part.same_class(WIDTH, HEIGHT)
        assert len(part.classes) == 1
        assert set(part.classes[0]) == {WIDTH, HEIGHT, W, H}

    def test_disjoint_constraints_stay_apart(self):
        part = closure([eq(WIDTH, W), eq(HEIGHT, H)])
        assert not part.same_class(WIDTH, HEIGHT)
        assert len(part.classes) == 2

    def test_extra_terms_appear_as_singletons(self):
        part = closure([eq(WIDTH, W)], extra_terms=[DEPTH])
        assert part.same_class(DEPTH, DEPTH)
        assert not part.same_class(DEPTH, WIDTH)

    def test_constant_clash_detected(self):
        part = closure([eq(WIDTH, NumConst(0)), eq(WIDTH, NumConst(1))])
        clash = part.constant_clash()
        assert clash is not None
        assert set(clash) == {NumConst(0), NumConst(1)}

    def test_distinct_strings_clash_too(self):
        part = closure([eq(NAME, StrConst("a")), eq(NAME, StrConst("b"))])
        assert part.constant_clash() is not None

    def test_same_constant_twice_is_fine(self):
        part = closure([eq(WIDTH, NumConst(4)), eq(HEIGHT, NumConst(4))])
        assert part.constant_clash() is None
        assert part.same_class(WIDTH, HEIGHT)  # both sit in 4's class

    def test_insertion_order_does_not_matter(self):
        forward = [eq(WIDTH, W), eq(W, H), eq(DEPTH, NumConst(2))]
        assert closure(forward).classes == closure(forward[::-1]).classes


class TestSatisfiable:
    def test_equalities_alone_are_satisfiable(self):
        assert satisfiable([eq(WIDTH, W), eq(W, HEIGHT)])

    def test_constant_clash_is_not(self):
        assert not satisfiable([eq(WIDTH, NumConst(0)), eq(WIDTH, NumConst(1))])

    def test_disequality_across_classes_is_fine(self):
        assert satisfiable([eq(WIDTH, W)], [(WIDTH, HEIGHT)])

    def test_disequality_within_a_class_is_not(self):
        assert not satisfiable([eq(WIDTH, W), eq(W, HEIGHT)], [(WIDTH, HEIGHT)])

    def test_oracle_agrees_on_frozen_cases(self):
        cases = [
            ([eq(WIDTH, NumConst(0)), eq(WIDTH, NumConst(1))], []),
            ([eq(WIDTH, W), eq(W, HEIGHT)], [(WIDTH, HEIGHT)]),
            ([eq(WIDTH, W)], [(WIDTH, HEIGHT)]),
            ([eq(NAME, OWNER)], [(NAME, OWNER)]),
        ]
        for eqs, neqs in cases:
            assert satisfiable(eqs, neqs) == oracle_satisfiable(eqs, neqs)


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

class TestReduce:
    def test_square_link_folds_onto_one_parameter(self):
        # The motivating case: width and height pinned to the same value.
        got = reduce([eq(WIDTH, W), eq(HEIGHT, H), eq(W, H)])
        assert got == frozenset({eq(WIDTH, H), eq(HEIGHT, H)})

    def test_reduction_result_is_renaming_of_expected(self):
        got = reduce([eq(WIDTH, W), eq(HEIGHT, H), eq(W, H)])
        params = {t for c in got for t in c.terms() if isinstance(t, Parameter)}
        assert len(params) == 1  # a single shared placeholder, whatever its name
        (p,) = params
        assert got == frozenset({eq(WIDTH, p), eq(HEIGHT, p)})

    def test_constant_wins_as_binding_target(self):
        got = reduce([eq(WIDTH, W), eq(W, NumConst(90))])
        assert got == frozenset({eq(WIDTH, NumConst(90))})

    def test_parameter_only_class_drops_out(self):
        assert reduce([eq(W, H)]) == frozenset()

    def test_named_constant_binds_like_an_attribute(self):
        got = reduce([eq(NAME, OWNER)])
        assert got == frozenset({eq(NAME, OWNER)})

    def test_unsatisfiable_input_is_rejected(self):
        with pytest.raises(UnsatisfiableError):
            reduce([eq(WIDTH, NumConst(0)), eq(WIDTH, NumConst(1))])

    def test_preserves_closure_over_original_observables(self):
        source = [eq(WIDTH, W), eq(HEIGHT, H), eq(W, H), eq(DEPTH, NumConst(3))]
        reduced = reduce(source)
        observed = [t for c in source for t in c.terms()]
        before = closure(source)
        after = closure(list(reduced), extra_terms=observed)
        for s in observed:
            for t in observed:
                if isinstance(s, Parameter) or isinstance(t, Parameter):
                    continue
                assert before.same_class(s, t) == after.same_class(s, t)


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

class TestEntails:
    def test_transitive_consequence(self):
        base = [eq(WIDTH, W), eq(W, HEIGHT)]
        assert entails(base, [eq(WIDTH, HEIGHT)])

    def test_unrelated_equality_is_not_entailed(self):
        assert not entails([eq(WIDTH, W)], [eq(WIDTH, HEIGHT)])

    def test_empty_candidate_is_vacuous(self):
        assert entails([eq(WIDTH, W)], [])

    def test_unsatisfiable_side_is_rejected(self):
        bad = [eq(WIDTH, NumConst(0)), eq(WIDTH, NumConst(1))]
        with pytest.raises(UnsatisfiableError):
            entails(bad, [eq(WIDTH, HEIGHT)])
        with pytest.raises(UnsatisfiableError):
            entails([eq(WIDTH, W)], bad)

    def test_oracle_agrees_on_frozen_cases(self):
        base = [eq(WIDTH, W), eq(W, HEIGHT), eq(DEPTH, NumConst(1))]
        for goal in [eq(WIDTH, HEIGHT), eq(WIDTH, DEPTH), eq(DEPTH, NumConst(1))]:
            assert entails(base, [goal]) == oracle_entails(base, goal)


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

def flag(name: str, negated: bool = False) -> FlagLiteral:
    return FlagLiteral(name, negated)


def cmp_eq(a, b) -> CmpLiteral:
    return CmpLiteral(a, "eq", b)


def cmp_neq(a, b) -> CmpLiteral:
    return CmpLiteral(a, "neq", b)


C_OWNER = Condition.of(cmp_eq(NAME, OWNER), flag("employee", negated=True))
C_STAFF = Condition.of(cmp_neq(NAME, OWNER), flag("employee"))


class TestConditions:
    def test_split_separates_literal_kinds(self):
        eqs, neqs, flags = split_condition(C_STAFF)
        assert eqs == []
        assert neqs == [(NamedConst("owner"), NAME)] or neqs == [(NAME, OWNER)]
        assert flags == {"employee": True}

    def test_split_rejects_contradictory_flags(self):
        with pytest.raises(ValueError):
            split_condition(Condition.of(flag("x"), flag("x", negated=True)))

    def test_always_is_satisfiable(self):
        assert condition_satisfiable(ALWAYS)

    def test_customer_conditions_are_exclusive(self):
        verdict = mutually_exclusive(C_OWNER, C_STAFF)
        assert verdict.exclusive
        assert verdict.witness is None

    def test_flag_polarity_alone_excludes(self):
        v = mutually_exclusive(Condition.of(flag("e")), Condition.of(flag("e", True)))
        assert v.exclusive

    def test_comparison_alone_excludes(self):
        v = mutually_exclusive(
            Condition.of(cmp_eq(NAME, OWNER)), Condition.of(cmp_neq(NAME, OWNER))
        )
        assert v.exclusive

    def test_independent_flags_overlap_with_witness(self):
        v = mutually_exclusive(Condition.of(flag("a")), Condition.of(flag("b", True)))
        assert not v.exclusive
        assert ("a", "true") in v.witness
        assert ("b", "false") in v.witness

    def test_witness_values_separate_classes(self):
        v = mutually_exclusive(
            Condition.of(cmp_eq(NAME, OWNER)), Condition.of(cmp_neq(NAME, WIDTH))
        )
        assert not v.exclusive
        values = dict(v.witness)
        assert values["name"] == values["owner"]
        assert values["name"] != values["width"]

    def test_oracle_agrees_on_frozen_cases(self):
        pairs = [
            (C_OWNER, C_STAFF),
            (Condition.of(flag("a")), Condition.of(flag("b", True))),
            (Condition.of(cmp_eq(NAME, OWNER)), Condition.of(cmp_neq(NAME, OWNER))),
            (ALWAYS, C_STAFF),
        ]
        for c1, c2 in pairs:
            assert (
                mutually_exclusive(c1, c2).exclusive
                == oracle_mutually_exclusive(c1, c2)
            )

    def test_self_contradictory_condition_is_exclusive_with_anything(self):
        broken = Condition.of(flag("x"), flag("x", negated=True))
        assert mutually_exclusive(broken, ALWAYS).exclusive
        assert not condition_satisfiable(broken)

    def test_pairwise_reports_the_offending_pair(self):
        overlaps = pairwise_exclusive([C_OWNER, C_STAFF, Condition.of(flag("vip"))])
        assert list(overlaps) == [(0, 2), (1, 2)]

    def test_a_family_of_one_has_no_pair(self):
        assert list(pairwise_exclusive([C_OWNER])) == []
        assert list(pairwise_exclusive([])) == []


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

TERM_POOL = [
    Attribute("width"),
    Attribute("height"),
    Attribute("depth"),
    Parameter("a"),
    Parameter("b"),
    NamedConst("k"),
    NumConst(0),
    NumConst(1),
    NumConst(2),
]

terms_st = st.sampled_from(TERM_POOL)
pairs_st = st.tuples(terms_st, terms_st).filter(lambda p: p[0] != p[1])
eqs_st = st.lists(pairs_st.map(lambda p: EqConstraint(*p)), max_size=5)


@given(eqs_st, st.randoms())
def test_closure_ignores_input_order(eqs, rng):
    shuffled = list(eqs)
    rng.shuffle(shuffled)
    assert closure(eqs).classes == closure(shuffled).classes


@given(eqs_st, pairs_st)
def test_closure_grows_monotonically(eqs, extra):
    before = closure(eqs)
    after = closure(eqs + [EqConstraint(*extra)])
    for members in before.classes:
        anchor = members[0]
        for other in members[1:]:
            assert after.same_class(anchor, other)


@given(eqs_st)
def test_closure_matches_oracle_pair_for_pair(eqs):
    part = closure(eqs)
    expected = oracle_same_class_pairs(eqs, domain=(0, 1, 2))
    terms = [t for cls in part.classes for t in cls]
    got = {
        frozenset((s, t))
        for i, s in enumerate(terms)
        for t in terms[i + 1 :]
        if part.same_class(s, t)
    }
    if satisfiable(eqs):
        assert got == expected
    else:
        assert got <= expected  # enumeration entails everything vacuously


@given(eqs_st)
def test_reduce_is_idempotent(eqs):
    try:
        once = reduce(eqs)
    except UnsatisfiableError:
        return
    assert reduce(once) == once


@given(eqs_st)
def test_reduce_never_invents_observable_merges(eqs):
    try:
        reduced = reduce(eqs)
    except UnsatisfiableError:
        return
    observed = [t for c in eqs for t in c.terms()]
    before = closure(eqs)
    after = closure(list(reduced), extra_terms=observed)
    for i, s in enumerate(observed):
        for t in observed[i + 1 :]:
            if isinstance(s, Parameter) or isinstance(t, Parameter):
                continue
            assert before.same_class(s, t) == after.same_class(s, t)


@given(eqs_st)
def test_satisfiable_set_entails_itself(eqs):
    if satisfiable(eqs):
        assert entails(eqs, eqs)


flag_lit_st = st.builds(
    FlagLiteral, st.sampled_from(["p", "q", "r"]), st.booleans()
)
cmp_lit_st = st.builds(
    lambda p, op: CmpLiteral(p[0], op, p[1]),
    pairs_st,
    st.sampled_from(["eq", "neq"]),
)
condition_st = st.builds(
    lambda fs, cs: Condition(frozenset(fs + cs)),
    st.lists(flag_lit_st, max_size=2),
    st.lists(cmp_lit_st, max_size=2),
)


@settings(max_examples=200)
@given(condition_st, condition_st)
def test_mutual_exclusivity_is_symmetric(c1, c2):
    assert mutually_exclusive(c1, c2).exclusive == mutually_exclusive(c2, c1).exclusive


@settings(max_examples=200)
@given(condition_st, st.one_of(st.just(ALWAYS), condition_st))
def test_exclusive_iff_the_conjunction_is_unsatisfiable(c1, c2):
    verdict = mutually_exclusive(c1, c2)
    assert verdict.exclusive == (not condition_satisfiable(c1, c2))
    assert (verdict.witness is None) == verdict.exclusive


def _disequalities(conds) -> int:
    return sum(
        isinstance(lit, CmpLiteral) and lit.op == "neq"
        for cond in conds
        for lit in cond.literals
    )


# World search conjoins three or more conditions at once.  At most two
# disequalities in all keep the oracle's three-value domain exact.
@settings(max_examples=200)
@given(st.lists(condition_st, max_size=4).filter(lambda cs: _disequalities(cs) <= 2))
def test_conjunction_of_several_conditions_matches_oracle(conds):
    assert condition_satisfiable(*conds) == oracle_conditions_satisfiable(conds)


# Families repeat conditions now and then, as a channel's promises do.
@settings(max_examples=200)
@given(
    st.lists(st.one_of(st.just(ALWAYS), condition_st), max_size=5).filter(
        lambda cs: _disequalities(cs) <= 2
    )
)
def test_pairwise_engine_matches_oracle(conds):
    pairs = list(pairwise_exclusive(conds, ConditionTable()))
    assert pairs == [
        (i, j)
        for i, j in itertools.combinations(range(len(conds)), 2)
        if not oracle_mutually_exclusive(conds[i], conds[j])
    ]
    assert pairs == [
        (i, j)
        for i, j in itertools.combinations(range(len(conds)), 2)
        if mutually_exclusive(conds[i], conds[j]).witness is not None
    ]


# ---------------------------------------------------------------------------
# Satisfiability on the union-find, and conflict detection across channels
# ---------------------------------------------------------------------------

# Fresh objects equal to the pool's terms, and 1.0 beside 1: the union-find
# must treat an equal copy as the stored term.
copied_terms_st = st.one_of(
    terms_st.map(copy.copy), st.just(NumConst(1.0))
)
neqs_st = st.lists(st.tuples(copied_terms_st, copied_terms_st), max_size=4)
copied_eqs_st = st.lists(
    st.tuples(copied_terms_st, copied_terms_st)
    .filter(lambda p: p[0] != p[1])
    .map(lambda p: EqConstraint(*p)),
    max_size=5,
)


@settings(max_examples=300)
@given(st.one_of(eqs_st, copied_eqs_st), neqs_st)
def test_satisfiable_agrees_with_the_partition(eqs, neqs):
    """The roots decide as the sorted classes read: unsatisfiable iff a
    class holds two constants or a disequality's sides share a class."""
    part = closure(eqs)
    class_of = {t: cls for cls in part.classes for t in cls}

    def read_same(a, b) -> bool:
        return a == b or b in class_of.get(a, ())

    clash = any(sum(map(is_constant, cls)) > 1 for cls in part.classes)
    clash = clash or any(read_same(a, b) for a, b in neqs)
    assert satisfiable(eqs, neqs) == (not clash)
    terms = TERM_POOL + [t for pair in neqs for t in pair]
    for a, b in itertools.product(terms, repeat=2):
        assert part.same_class(a, b) == read_same(a, b)


@pytest.mark.parametrize(
    "c1, c2, exclusive",
    [
        (Condition(frozenset({CmpLiteral(WIDTH, "eq", NumConst(1))})),
         Condition(frozenset({CmpLiteral(HEIGHT, "neq", W)})), False),
        (Condition(frozenset({CmpLiteral(WIDTH, "eq", NumConst(1))})),
         Condition(frozenset({CmpLiteral(WIDTH, "eq", NumConst(2))})), True),
        (Condition(frozenset({CmpLiteral(WIDTH, "eq", W)})),
         Condition(frozenset({CmpLiteral(WIDTH, "neq", W)})), True),
    ],
    ids=["can-hold-together", "constant-clash", "violated-disequality"],
)
def test_one_union_find_per_satisfiable_call_and_exclusivity_verdict(
    c1, c2, exclusive, monkeypatch
):
    built = []

    class CountingUnionFind(promisekit.constraints.UnionFind):
        def __init__(self) -> None:
            super().__init__()
            built.append(self)

    monkeypatch.setattr(promisekit.constraints, "UnionFind", CountingUnionFind)
    assert mutually_exclusive(c1, c2).exclusive == exclusive
    assert len(built) == 1
    eqs, neqs, _ = split_condition(c1.conjoin(c2))
    assert satisfiable(eqs, neqs) == (not exclusive)
    assert len(built) == 2


def test_root_questions_leave_the_classes_unsorted():
    part = closure([eq(WIDTH, W), eq(W, NumConst(1)), eq(HEIGHT, H)], [DEPTH])
    assert part.admits([(WIDTH, HEIGHT)])
    assert not part.admits([(W, NumConst(1))])
    assert part.same_class(WIDTH, NumConst(1)) and not part.same_class(DEPTH, H)
    assert "classes" not in part.__dict__ and "_class_of" not in part.__dict__
    assert part.class_of(W) == (NumConst(1), WIDTH, W)
    assert "classes" in part.__dict__


def partition_verdict(c1: Condition, c2: Condition):
    """Exclusivity read off the conjunction's sorted partition: exclusive
    unless it admits the disequalities, and then one value per class (a
    constant, else a fresh ``v<i>``) and each flag's polarity."""
    try:
        eqs, neqs, flags = split_condition(c1.conjoin(c2))
    except ValueError:
        return True, None
    part = closure(eqs, [t for pair in neqs for t in pair])
    if not part.admits(neqs):
        return True, None
    entries, fresh = [], 0
    for cls in part.classes:
        consts = [t for t in cls if is_constant(t)]
        if consts:
            value = format_term(consts[0])
        else:
            value, fresh = f"v{fresh}", fresh + 1
        entries += [(format_term(t), value) for t in cls if not is_constant(t)]
    entries += [(name, "true" if on else "false") for name, on in sorted(flags.items())]
    return False, tuple(sorted(entries))


@settings(max_examples=300)
@given(condition_st, st.one_of(st.just(ALWAYS), condition_st))
def test_exclusivity_keeps_the_partition_verdict_and_witness(c1, c2):
    verdict = mutually_exclusive(c1, c2)
    assert (verdict.exclusive, verdict.witness) == partition_verdict(c1, c2)


# Channels drawn from a few agents; each promise takes its gate from a small
# pool, so channels share conditions and condition pairs.
CHANNEL_HEAD = (
    "agent a, b, c;\ntype x: num;\ntype y: num;\nflag f;\nflag g;\n"
    "bundle B { give x = $t; give y = $t if f; }\n"
    "b -> a: give f;\nb -> a: give g;\nc -> a: give f;\nc -> a: give g;\n"
)
CHANNEL_BODIES = [
    "bundle B", "give x = $u", "give y = $u", "give x = 1", "give y = 2",
    "give x = y", "use x",
]
CHANNEL_GATES = ["", " if f", " if not f", " if f and g", " if x == 1", " if y != 2"]


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a -> b", "a -> c", "b -> c", "c -> b"]),
            st.sampled_from(CHANNEL_BODIES),
            st.sampled_from(CHANNEL_GATES),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_conflicts_match_judging_each_channel_alone(promises):
    lines = []
    for channel, body, gate in promises:
        if body.startswith("bundle"):
            lines.append(f"{channel}: {body}\n")
        else:
            lines.append(f"{channel}: {body}{gate};\n")
    graph = load_text(CHANNEL_HEAD + "".join(lines))
    alone = [
        finding
        for channel_promises in graph.channels().values()
        for finding in detect_conflicts(
            PromiseGraph(graph.agents, graph.types, graph.bundles, channel_promises)
        )
    ]
    assert detect_conflicts(graph) == sorted(alone, key=finding_sort_key)
