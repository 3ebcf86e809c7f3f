"""Graph analyses: signatures, roles, structural checks, conflicts, classes."""
from __future__ import annotations

import itertools
import re
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import promisekit.constraints
import promisekit.model
import promisekit.worlds
from promisekit import corpus
from promisekit.analysis import (
    bundle_signature,
    check_dispatch_pattern,
    check_extension,
    check_is_a,
    check_override_policy,
    derive_class_hierarchy,
    detect_conflicts,
    discover_roles,
    extract_spanning_set,
    Finding,
    finding_sort_key,
    IN,
    INCONSISTENT,
    IS_A,
    normalize_body,
    OUT,
    RESTRICTED,
    Role,
    Severity,
)
from promisekit.constraints import (
    condition_satisfiable,
    mutually_exclusive,
    pairwise_exclusive,
)
from promisekit.dsl import parse, resolve
from promisekit.errors import UnsatisfiableError
from promisekit.model import (
    Agent,
    ALWAYS,
    Attribute,
    build_graph,
    Bundle,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    format_body,
    format_term,
    give,
    link,
    NumConst,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    PromiseTypeDecl,
    term_key,
    use,
)

from bruteforce import (
    oracle_conditions_satisfiable,
    oracle_is_a,
    oracle_mutually_exclusive,
    oracle_override,
    oracle_satisfiable,
    reference_findings,
    reference_scenarios,
    role_signature,
)
from loaders import load_corpus, load_text, run_cli

WIDTH, HEIGHT, ANGLE = Attribute("width"), Attribute("height"), Attribute("angle")


def P(name: str) -> Parameter:
    return Parameter(name)


def rectangle(w: str = "w", h: str = "h") -> Bundle:
    return Bundle(
        "Rectangle",
        (
            give("width", EqConstraint(WIDTH, P(w))),
            give("height", EqConstraint(HEIGHT, P(h))),
            give("angle", EqConstraint(ANGLE, NumConst(90))),
            give("sides", EqConstraint(Attribute("sides"), NumConst(4))),
        ),
    )


def square(w: str = "w", h: str = "h") -> Bundle:
    return Bundle("Square", rectangle(w, h).bodies + (link(P(w), P(h)),))


# ---------------------------------------------------------------------------
# Severities and findings
# ---------------------------------------------------------------------------

class TestSeverity:
    def test_ladder_orders_worst_last(self):
        assert (
            Severity.PATTERN_ERROR
            < Severity.POLICY_VIOLATION
            < Severity.RESTRICTED
            < Severity.INCONSISTENT
        )

    def test_labels(self):
        assert Severity.PATTERN_ERROR.label == "PatternError"
        assert Severity.POLICY_VIOLATION.label == "PolicyViolation"
        assert Severity.RESTRICTED.label == "Restricted"
        assert Severity.INCONSISTENT.label == "Inconsistent"

    def test_findings_must_cite_something(self):
        with pytest.raises(ValueError):
            Finding(Severity.RESTRICTED, "x", "m", ())

    def test_sort_puts_worst_first(self):
        mild = Finding(Severity.PATTERN_ERROR, "a", "m", ("p",))
        bad = Finding(Severity.INCONSISTENT, "z", "m", ("p",))
        assert sorted([mild, bad], key=finding_sort_key) == [bad, mild]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class TestSignatures:
    def test_parameter_names_do_not_matter(self):
        assert bundle_signature(rectangle("w", "h")) == bundle_signature(
            rectangle("p", "q")
        )
        assert bundle_signature(square("w", "h")) == bundle_signature(
            square("a", "b")
        )

    def test_square_and_rectangle_differ(self):
        assert bundle_signature(square()) != bundle_signature(rectangle())

    def test_conditions_are_invisible(self):
        plain = Bundle("B", (use("svc"),))
        gated = Bundle(
            "B", (use("svc", Condition.of(FlagLiteral("f"))),)
        )
        assert bundle_signature(plain) == bundle_signature(gated)

    def test_normalize_body_is_renaming_invariant(self):
        a = give("width", EqConstraint(WIDTH, P("w")))
        b = give("width", EqConstraint(WIDTH, P("zz")))
        assert normalize_body(a) == normalize_body(b)

    def test_renaming_parameters_in_a_condition_keeps_the_body_shape(self):
        def gated(x: str, y: str, pinned: str) -> PromiseBody:
            cond = Condition.of(
                CmpLiteral(P(pinned), "eq", NumConst(1)), CmpLiteral(P(x), "neq", P(y))
            )
            return give("width", EqConstraint(WIDTH, P(x)), condition=cond)

        assert normalize_body(gated("x", "y", "y")) == normalize_body(gated("a", "b", "b"))
        assert normalize_body(gated("x", "y", "y")) != normalize_body(gated("x", "y", "x"))

    def test_a_tie_past_the_cap_falls_back_to_name_order(self, monkeypatch):
        # Seven parameters share one occurrence profile: 7! = 5040 orders,
        # past _PERM_CAP, so the one assignment is name order, and it gives
        # one signature whatever the order of the bodies.
        bodies = tuple(give("width", EqConstraint(WIDTH, P(f"p{i}"))) for i in range(7))

        def no_permutations(*args):
            raise AssertionError("a permutation was tried past the cap")

        monkeypatch.setattr(itertools, "permutations", no_permutations)
        first = bundle_signature(Bundle("B", bodies))
        assert bundle_signature(Bundle("B", bodies)) == first
        assert bundle_signature(Bundle("B", bodies[::-1])) == first

    def test_constraint_shape_matters(self):
        a = give("width", EqConstraint(WIDTH, P("w")))
        b = give("width", EqConstraint(WIDTH, NumConst(3)))
        assert normalize_body(a) != normalize_body(b)


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------

class TestRoles:
    def test_geometry_roles(self):
        roles = discover_roles(load_corpus("geometry.pml"))
        by_label = {r.label: r.members for r in roles}
        assert by_label == {
            "gives:angle+height+sides+width": ("rect", "square"),
            "receives:angle+height+sides+width": ("viewer",),
        }

    def test_extra_link_body_does_not_change_the_role(self):
        graph = load_corpus("geometry.pml")
        assert role_signature(graph, "rect") == role_signature(graph, "square")

    def test_bank_roles(self):
        roles = discover_roles(load_corpus("bank.pml"))
        assert {r.label: r.members for r in roles} == {
            "gives:cash_payment+customer+employee+name": ("person",),
            "gives:account_functions+keep_money_safe": ("account",),
        }

    def test_web_roles_split_servers_from_browsers(self):
        roles = discover_roles(load_corpus("web.pml"))
        assert {r.label: r.members for r in roles} == {
            "gives:web": ("s1", "s2"),
            "uses:web": ("b1", "b2", "b3"),
        }

    def test_member_signatures_match_their_role(self):
        for name in corpus.names():
            graph = load_corpus(name)
            roles = discover_roles(graph)
            for role in roles:
                for member in role.members:
                    assert role_signature(graph, member) == role.signature
            signatures = [r.signature for r in roles]
            assert len(signatures) == len(set(map(repr, signatures)))

    def test_every_agent_lands_in_exactly_one_role(self):
        for name in corpus.names():
            graph = load_corpus(name)
            assigned = [m for r in discover_roles(graph) for m in r.members]
            assert sorted(assigned) == [a.name for a in graph.agents]

    def test_isolated_agent_gets_its_own_role(self):
        graph = load_text("agent loner;\n")
        roles = discover_roles(graph)
        assert [r.label for r in roles] == ["isolated"]


ROLE_AGENTS = ["h", "c", "f", "a", "g", "b", "e", "d"]
ROLE_ATTRS, ROLE_PARAMS = ["width", "height"], ["p", "q", "r"]
ROLE_TYPES = [PromiseTypeDecl(t, "num") for t in ROLE_ATTRS] + [PromiseTypeDecl("ready", "flag")]

role_body_st = st.one_of(
    st.builds(
        lambda t, p: give(t, EqConstraint(Attribute(t), Parameter(p))),
        st.sampled_from(ROLE_ATTRS),
        st.sampled_from(ROLE_PARAMS),
    ),
    st.builds(lambda t: give(t, condition=Condition.of(FlagLiteral("ready"))),
              st.sampled_from(ROLE_ATTRS)),
    st.builds(use, st.sampled_from([*ROLE_ATTRS, "ready"])),
    st.just(give("ready")),
    st.builds(
        lambda p, q: link(Parameter(p), Parameter(q)),
        st.sampled_from(ROLE_PARAMS),
        st.sampled_from(ROLE_PARAMS),
    ).filter(lambda b: len({t for c in b.constraints for t in c.terms()}) == 2),
)


def counted_roles(graph) -> list:
    """The roles by definition: one ``Counter`` per agent (``role_signature``),
    agents grouped by equal signatures, roles in signature order, members
    sorted, and the label read off the first non-empty (direction,
    polarity) in out-give, out-use, in-give, in-use order."""
    grouped: dict = {}
    for agent in graph.agents:
        grouped.setdefault(role_signature(graph, agent.name), []).append(agent.name)
    verbs = {(OUT, "give"): "gives", (OUT, "use"): "uses",
             (IN, "give"): "receives", (IN, "use"): "serves"}
    roles = []
    for signature, members in sorted(grouped.items()):
        label = "isolated"
        for (direction, polarity), verb in verbs.items():
            types = sorted({t for (d, pol, t), _ in signature if (d, pol) == (direction, polarity)})
            if types:
                label = f"{verb}:{'+'.join(types)}"
                break
        roles.append(Role(signature, label, tuple(sorted(members))))
    return roles


@settings(max_examples=200, deadline=None)
@example(3, [(0, 0, link(Parameter("p"), Parameter("q"))), (0, 0, use("width")),
             (0, 2, link(Parameter("p"), Parameter("r")))], 1)
@given(
    st.integers(1, len(ROLE_AGENTS)),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), role_body_st), max_size=24),
    st.integers(1, 3),
)
def test_discover_roles_groups_agents_by_role_signature(n, edges, copies):
    """The one-pass ``discover_roles``, which groups agents by their sorted
    entries and counts each distinct multiset once, gives the same roles,
    in the same order, with the same members and labels, as one
    ``Counter`` per agent; with self-promises, link-only bodies and agents
    that promise nothing.  ``copies`` repeats every edge among renamed
    agents, so that many agents share one multiset."""
    names = ROLE_AGENTS[:n]
    promises = [
        Promise(f"{names[i % n]}{k}", f"{names[j % n]}{k}", body)
        for k in range(copies) for i, j, body in edges
    ]
    agents = [Agent(f"{a}{k}") for k in range(copies) for a in names]
    graph = build_graph(agents, ROLE_TYPES, promises=promises)
    assert discover_roles(graph) == counted_roles(graph)


class TestSpanningSet:
    def test_bank_collapses_to_two_shapes(self):
        spanning = extract_spanning_set(load_corpus("bank.pml"))
        assert [(s.representative, len(s.members)) for s in spanning] == [
            ("account->person", 1),
            ("person->account", 1),
        ]

    def test_geometry_keeps_declared_bundles_apart(self):
        spanning = extract_spanning_set(load_corpus("geometry.pml"))
        assert [s.representative for s in spanning] == ["Rectangle", "Square"]

    def test_identical_direct_channels_share_a_class(self):
        graph = load_corpus("web.pml")
        spanning = extract_spanning_set(graph)
        sizes = sorted(len(s.members) for s in spanning)
        assert sizes == [6, 6]  # six give channels, six use channels


# ---------------------------------------------------------------------------
# Extension
# ---------------------------------------------------------------------------

class TestExtension:
    def test_square_extends_rectangle_not_conversely(self):
        assert check_extension(square(), rectangle()) is True
        assert check_extension(rectangle(), square()) is False

    def test_reflexive(self):
        for bundle in (rectangle(), square()):
            assert check_extension(bundle, bundle)

    def test_renaming_does_not_matter(self):
        assert check_extension(square("p", "q"), rectangle("w", "h"))

    def test_transitive_on_a_chain(self):
        base = Bundle("A", rectangle().bodies[:2])
        mid = Bundle("B", rectangle().bodies[:3])
        top = Bundle("C", rectangle().bodies)
        assert check_extension(mid, base)
        assert check_extension(top, mid)
        assert check_extension(top, base)

    def test_condition_literals_tell_bodies_apart(self):
        def gated(name: str, n: int) -> Bundle:
            cond = Condition.of(CmpLiteral(P("y"), "eq", NumConst(n)))
            return Bundle(name, (give("width", EqConstraint(WIDTH, P("y")), condition=cond),))

        assert check_extension(gated("A", 1), gated("B", 1))
        assert not check_extension(gated("A", 1), gated("B", 2))

    def test_flag_literals_tell_bodies_apart(self):
        def gated(name: str, param: str, *literals: FlagLiteral) -> Bundle:
            body = give("w", EqConstraint(Attribute("w"), P(param)),
                        condition=Condition.of(*literals))
            return Bundle(name, (body,))

        child = gated("A", "a", FlagLiteral("f"))
        assert check_extension(child, gated("B", "b", FlagLiteral("f")))
        assert not check_extension(child, gated("B", "b", FlagLiteral("g")))
        assert not check_extension(child, gated("B", "b", FlagLiteral("f", negated=True)))

    def test_repeated_bodies_are_counted(self):
        once = Bundle("Once", (use("svc"),))
        twice = Bundle("Twice", (use("svc"), use("svc")))
        assert check_extension(twice, once)
        assert not check_extension(once, twice)


# ---------------------------------------------------------------------------
# Is-a
# ---------------------------------------------------------------------------

class TestIsA:
    def test_square_is_not_a_rectangle(self):
        verdict = check_is_a(square(), rectangle())
        assert verdict.outcome == RESTRICTED
        assert not verdict.is_a
        assert verdict.details == ("height ~ width",)
        joined = " ".join(verdict.involved)
        assert "width" in joined and "height" in joined

    def test_rectangle_is_a_square(self):
        # The merge already happens in the parent; the child adds nothing new.
        assert check_is_a(rectangle(), square()).outcome == IS_A

    def test_everything_is_itself(self):
        for bundle in (rectangle(), square()):
            assert check_is_a(bundle, bundle).outcome == IS_A

    def test_fresh_attribute_cannot_restrict(self):
        extended = Bundle(
            "Colored",
            rectangle().bodies + (give("color", EqConstraint(Attribute("color"), P("c"))),),
        )
        assert check_is_a(extended, rectangle()).outcome == IS_A

    def test_conflicting_constants_are_inconsistent(self):
        ninety = Bundle("Ninety", (give("angle", EqConstraint(ANGLE, NumConst(90))),))
        fortyfive = Bundle("FortyFive", (give("angle", EqConstraint(ANGLE, NumConst(45))),))
        verdict = check_is_a(fortyfive, ninety)
        assert verdict.outcome == INCONSISTENT
        assert verdict.details == ("45 and 90 are forced equal",)

    def test_unsatisfiable_input_is_rejected(self):
        broken = Bundle(
            "Broken",
            (
                give("angle", EqConstraint(ANGLE, NumConst(1))),
                give("angle", EqConstraint(ANGLE, NumConst(2))),
            ),
        )
        with pytest.raises(UnsatisfiableError):
            check_is_a(broken, rectangle())
        with pytest.raises(UnsatisfiableError):
            check_is_a(rectangle(), broken)

    def test_verdict_is_invariant_under_renaming(self):
        assert (
            check_is_a(square("p", "q"), rectangle("x", "y")).outcome
            == check_is_a(square(), rectangle()).outcome
            == RESTRICTED
        )

    def test_conditional_merge_is_reported_per_scenario(self):
        gated_link = Bundle(
            "Sometimes",
            rectangle().bodies + (link(P("w"), P("h"), Condition.of(FlagLiteral("f"))),),
        )
        verdict = check_is_a(gated_link, rectangle())
        assert verdict.outcome == RESTRICTED
        assert verdict.details == ("height ~ width (when f)",)

    def test_violated_disequality_cites_only_the_bodies_in_its_class(self):
        graph = load_text(
            "agent a, b;\ntype width: num;\ntype height: num;\ntype depth: num;\n"
            "bundle P { give width = $w if height != width; give depth = $d; }\n"
            "bundle C { give width = height; }\n"
            "a -> b: bundle P;\n"
        )
        verdict = check_is_a(graph.bundle("C"), graph.bundle("P"))
        assert verdict.outcome == INCONSISTENT
        assert verdict.details == (
            "a required disequality is violated (when height != width)",
        )
        assert verdict.involved == (
            "child C: +height=width",
            "parent P: +width=$w if height != width",
        )

    def test_condition_parameters_stay_apart_from_constraint_parameters(self):
        # The condition's $x is channel-wide; the constraint's $x belongs to
        # its body, so w = $x does not meet $x == 1 and 1 is never forced to 2.
        graph = load_text(
            "agent a, b;\ntype w: num;\n"
            "bundle B { give w = $x if $x == 1; give w = 2; }\n"
            "a -> b: bundle B;\n"
        )
        bundle = graph.bundle("B")
        assert check_is_a(bundle, bundle).outcome == IS_A


# ---------------------------------------------------------------------------
# Override policy
# ---------------------------------------------------------------------------

#: A base that clashes on its own, and a child that shares no term with it.
SELF_CLASHING = Bundle("P", (link(P("w"), NumConst(1)), link(P("w"), NumConst(2))))
UNRELATED_CHILD = Bundle("C", (give("other", EqConstraint(Attribute("other"), P("v"))),))


class TestOverridePolicy:
    def test_restating_a_base_constraint_is_fine(self):
        base = Bundle("Base", (give("angle", EqConstraint(ANGLE, NumConst(90))),))
        child = Bundle("Child", (give("angle", EqConstraint(ANGLE, NumConst(90))),))
        assert check_override_policy(base, child) == []

    def test_linking_base_parameters_narrows_both_bodies(self):
        base = Bundle(
            "Base",
            (
                give("width", EqConstraint(WIDTH, P("w"))),
                give("height", EqConstraint(HEIGHT, P("h"))),
            ),
        )
        child = Bundle("Child", (link(P("w"), P("h")),))
        findings = check_override_policy(base, child)
        assert [f.code for f in findings] == [
            "override-restriction",
            "override-restriction",
        ]
        assert all(f.severity == Severity.POLICY_VIOLATION for f in findings)
        touched = " ".join(f.message for f in findings)
        assert "+width=$w" in touched and "+height=$h" in touched

    def test_contradicting_a_base_constant_is_reported(self):
        base = Bundle("Base", (give("angle", EqConstraint(ANGLE, NumConst(90))),))
        child = Bundle("Child", (give("angle", EqConstraint(ANGLE, NumConst(60))),))
        findings = check_override_policy(base, child)
        assert [f.code for f in findings] == ["override-contradiction"]
        assert findings[0].severity == Severity.POLICY_VIOLATION

    def test_unrelated_child_constraints_are_ignored(self):
        base = Bundle("Base", (give("width", EqConstraint(WIDTH, P("w"))),))
        child = Bundle("Child", (give("depth", EqConstraint(Attribute("depth"), NumConst(2))),))
        assert check_override_policy(base, child) == []

    def test_bodies_never_in_force_together_do_not_clash(self):
        f, not_f = Condition.of(FlagLiteral("f")), Condition.of(FlagLiteral("f", True))
        base = Bundle("Base", (give("width", EqConstraint(WIDTH, NumConst(1)), condition=f),))
        child = Bundle("Child", (give("width", EqConstraint(WIDTH, NumConst(2)), condition=not_f),))
        assert check_override_policy(base, child) == []

    def test_a_clash_names_the_world_it_holds_in(self):
        f, g = Condition.of(FlagLiteral("f")), Condition.of(FlagLiteral("g"))
        base = Bundle("Base", (give("width", EqConstraint(WIDTH, NumConst(1)), condition=f),))
        child = Bundle(
            "Child",
            (
                give("width", EqConstraint(WIDTH, NumConst(2)), condition=f),
                give("height", EqConstraint(WIDTH, HEIGHT), condition=g),
            ),
        )
        findings = check_override_policy(base, child)
        assert [(f.code, f.message) for f in findings] == [
            (
                "override-contradiction",
                "base body '+width=1 if f' of Base is contradicted by Child (when f & g)",
            )
        ]

    def test_a_clash_cites_only_the_base_bodies_it_touches(self):
        base = Bundle(
            "Base",
            (
                give("width", EqConstraint(WIDTH, P("w"))),
                give("height", EqConstraint(HEIGHT, P("h"))),
            ),
        )
        # The child holds on its own; with the base, width = $w makes 1 = 2.
        child = Bundle("Child", (link(WIDTH, NumConst(1)), link(P("w"), NumConst(2))))
        findings = check_override_policy(base, child)
        assert [(f.code, f.message) for f in findings] == [
            ("override-contradiction", "base body '+width=$w' of Base is contradicted by Child")
        ]

    def test_a_child_that_breaks_the_world_premise_contradicts(self):
        apart = Condition.of(CmpLiteral(WIDTH, "neq", HEIGHT))
        base = Bundle("Base", (give("width", EqConstraint(WIDTH, P("w")), condition=apart),))
        child = Bundle("Child", (link(P("w"), HEIGHT),))
        findings = check_override_policy(base, child)
        assert [f.code for f in findings] == ["override-contradiction"]
        assert findings[0].message.endswith("(when height != width)")

    @pytest.mark.parametrize("base, child, name", [
        (SELF_CLASHING, UNRELATED_CHILD, "P"),
        (SELF_CLASHING, Bundle("C", ()), "P"),
        (rectangle(), Bundle("C", SELF_CLASHING.bodies), "C"),
    ])
    def test_a_bundle_that_clashes_on_its_own_is_rejected_as_in_is_a(self, base, child, name):
        # No child contradicts a base that clashes by itself; the override
        # policy and is-a both name the bundle that does.
        unsatisfiable = f"bundle {name} is unsatisfiable on its own"
        with pytest.raises(UnsatisfiableError, match=unsatisfiable):
            check_override_policy(base, child)
        with pytest.raises(UnsatisfiableError, match=unsatisfiable):
            check_is_a(child, base)


# ---------------------------------------------------------------------------
# Is-a and override policy against their oracles, on unconditional bundles
# ---------------------------------------------------------------------------

ORACLE_TERMS = [WIDTH, HEIGHT, P("a"), P("b"), P("c"), NumConst(1), NumConst(2)]

oracle_body_st = st.one_of(
    st.builds(
        lambda attr, term: give(attr.name, EqConstraint(attr, term)),
        st.sampled_from([WIDTH, HEIGHT]),
        st.sampled_from(ORACLE_TERMS),
    ),
    st.builds(link, st.sampled_from(ORACLE_TERMS), st.sampled_from(ORACLE_TERMS)),
)


def oracle_bundle_st(name: str):
    return st.builds(
        lambda bodies: Bundle(name, tuple(bodies)), st.lists(oracle_body_st, max_size=3)
    )


def pair_text(pair) -> str:
    a, b = sorted(pair, key=term_key)
    return f"{format_term(a)} ~ {format_term(b)}"


@settings(max_examples=200, deadline=None)
@example(square(), rectangle())
@given(oracle_bundle_st("C"), oracle_bundle_st("P"))
def test_is_a_matches_its_oracle(child, parent):
    outcome, pairs = oracle_is_a(child, parent)
    if outcome == "unsatisfiable":
        with pytest.raises(UnsatisfiableError):
            check_is_a(child, parent)
        return
    verdict = check_is_a(child, parent)
    assert verdict.outcome == outcome
    if outcome != INCONSISTENT:
        assert verdict.details == tuple(sorted(pair_text(p) for p in pairs))


F, NOT_F = Condition.of(FlagLiteral("f")), Condition.of(FlagLiteral("f", True))
ORACLE_GATES = [
    F,
    NOT_F,
    Condition.of(FlagLiteral("g")),
    Condition.of(CmpLiteral(WIDTH, "eq", NumConst(1))),
    Condition.of(CmpLiteral(WIDTH, "neq", NumConst(1))),
]


def gated_bundle_st(name: str):
    gated_body = st.builds(
        lambda body, gate: PromiseBody(body.polarity, body.type, body.constraints, gate),
        oracle_body_st,
        st.sampled_from([ALWAYS, *ORACLE_GATES]),
    )
    return st.builds(lambda bodies: Bundle(name, tuple(bodies)), st.lists(gated_body, max_size=3))


def clashes_alone(bundle: Bundle) -> bool:
    """Some world of the bundle's own conditions admits no model of its
    premises and the bundle's constraints in force.  A world holds at most
    one disequality, so the oracle's three-value domain is exact."""
    for world in reference_scenarios(b.condition for b in bundle.bodies):
        in_force = [
            c for b in bundle.bodies
            if b.condition.is_empty or b.condition in world.active
            for c in b.constraints
        ]
        if not oracle_satisfiable([*world.eqs, *in_force], world.neqs):
            return True
    return False


GATED_CLASH = Bundle("G", tuple(
    give("width", EqConstraint(WIDTH, NumConst(n)), condition=F) for n in (1, 2)
))


@settings(max_examples=200, deadline=None)
@example(Bundle("C", GATED_CLASH.bodies), rectangle())
@example(square(), Bundle("P", GATED_CLASH.bodies))
@example(Bundle("C", GATED_CLASH.bodies), Bundle("P", GATED_CLASH.bodies))
@example(Bundle("C", GATED_CLASH.bodies[:1]), Bundle("P", GATED_CLASH.bodies[1:]))
@example(rectangle(), Bundle("P", GATED_CLASH.bodies + (link(HEIGHT, P("a"), NOT_F),)))
@given(gated_bundle_st("C"), gated_bundle_st("P"))
def test_is_a_names_the_side_that_clashes_alone(child, parent):
    # The joint walk judges a side alone only where the two clash; the
    # side it names must be the first, parent then child, that clashes in
    # some world of its own conditions.
    unsatisfiable = [b.name for b in (parent, child) if clashes_alone(b)]
    if unsatisfiable:
        with pytest.raises(UnsatisfiableError, match=f"bundle {unsatisfiable[0]} is"):
            check_is_a(child, parent)
    else:
        assert check_is_a(child, parent).outcome in (IS_A, RESTRICTED, INCONSISTENT)


@settings(max_examples=200, deadline=None)
@example(
    Bundle("Base", (give("width", EqConstraint(WIDTH, P("a"))),
                    give("height", EqConstraint(HEIGHT, P("b"))))),
    Bundle("Child", (link(P("a"), P("b")),)),
)
@example(SELF_CLASHING, UNRELATED_CHILD)
@given(oracle_bundle_st("Base"), oracle_bundle_st("Child"))
def test_override_policy_matches_its_oracle(base, child):
    expected = oracle_override(base, child)
    if expected is None:
        alone = [[c for b in x.bodies for c in b.constraints] for x in (base, child)]
        if not all(oracle_satisfiable(cons) for cons in alone):
            with pytest.raises(UnsatisfiableError):
                check_override_policy(base, child)
            return
        findings = check_override_policy(base, child)
        assert findings
        assert {f.code for f in findings} == {"override-contradiction"}
        return
    findings = check_override_policy(base, child)
    assert {f.code for f in findings} <= {"override-restriction"}
    narrowed = f"narrowed by {child.name}: "
    assert sorted(
        (f.promises[-1], tuple(sorted(f.message.split(narrowed, 1)[1].split(", "))))
        for f in findings
    ) == sorted(
        (f"bundle {base.name}: {format_body(body)}", tuple(sorted(map(pair_text, pairs))))
        for body, pairs in expected
        if pairs
    )


def flags_text(k: int) -> str:
    """The shape of the ``flags`` benchmark model: k gates, the last four a
    flag and its negation twice over.  P and C make the same gated bodies;
    SP adds width and height, RP also ties them under the first gate, and
    RC ties them outright."""
    flags = [f"g{i}" for i in range(k - 4)]
    gates = [(g, f"v{i}") for i, g in enumerate(flags)]
    gates += [("fa", "ma"), ("not fa", "ma"), ("fb", "mb"), ("not fb", "mb")]

    def gated(prefix: str, skip_first: bool = False) -> str:
        return " ".join(
            f"give {typ} = ${prefix}{i} if {cond};"
            for i, (cond, typ) in enumerate(gates)
            if i or not skip_first
        )

    types = [typ for _, typ in gates[: k - 4]] + ["ma", "mb", "width", "height"]
    lines = [
        "agent x, y;",
        *(f"flag {f};" for f in flags + ["fa", "fb"]),
        *(f"type {t}: num;" for t in types),
        f"bundle P {{ {gated('p')} }}",
        f"bundle C {{ {gated('c')} }}",
        f"bundle SP {{ give width = $w; give height = $h; {gated('s')} }}",
        f"bundle RP {{ give width = $w; give height = $h; give $w = $h if g0; "
        f"{gated('r', skip_first=True)} }}",
        "bundle RC { give width = $a; give height = $a; }",
    ]
    return "\n".join(lines) + "\n"


def test_restriction_engine_closes_only_what_its_caller_reads(monkeypatch):
    # Four worlds: g0 and g1 always, fa or not, fb or not.  Where the two
    # sides do not clash, is-a and the override policy each close the joint
    # and the base alone once per joint world, and judge no side alone.
    graph = load_text(flags_text(6))
    calls = Counter()
    real = promisekit.worlds.closure

    def counting(*args):
        calls["closure"] += 1
        return real(*args)

    monkeypatch.setattr(promisekit.worlds, "closure", counting)
    counts = {}
    for child, parent in (("C", "P"), ("RC", "SP"), ("RC", "RP")):
        calls.clear()
        check_is_a(graph.bundle(child), graph.bundle(parent))
        counts["is-a", child, parent] = calls["closure"]
        calls.clear()
        check_override_policy(graph.bundle(parent), graph.bundle(child))
        counts["override", parent, child] = calls["closure"]
    assert counts == {
        ("is-a", "C", "P"): 8,
        ("is-a", "RC", "SP"): 8,
        ("is-a", "RC", "RP"): 8,
        ("override", "P", "C"): 8,
        ("override", "SP", "RC"): 8,
        ("override", "RP", "RC"): 8,
    }


# ---------------------------------------------------------------------------
# Dispatch pattern
# ---------------------------------------------------------------------------

def dispatch_variant(old: str, new: str):
    text = corpus.read("dispatch.pml").replace(old, new)
    assert text != corpus.read("dispatch.pml")
    parsed = parse(text, "dispatch.pml")
    assert parsed.ok
    resolved = resolve(parsed.ast)
    # dropping promises can legitimately add autonomy warnings — never errors
    assert resolved.ok
    return resolved.graph


class TestDispatchPattern:
    def test_the_switch_fixture_validates(self):
        graph = load_corpus("dispatch.pml")
        assert check_dispatch_pattern(graph, "provider", "consumer", "subtype").ok

    def test_missing_discriminator_give(self):
        graph = dispatch_variant("consumer -> provider: give subtype;\n", "")
        report = check_dispatch_pattern(graph, "provider", "consumer", "subtype")
        assert [f.code for f in report.findings] == ["dispatch-missing-give"]
        assert report.findings[0].severity == Severity.PATTERN_ERROR

    def test_missing_discriminator_use(self):
        graph = dispatch_variant("provider -> consumer: use subtype;\n", "")
        report = check_dispatch_pattern(graph, "provider", "consumer", "subtype")
        assert [f.code for f in report.findings] == ["dispatch-missing-use"]

    def test_overlapping_branches(self):
        graph = dispatch_variant(
            "bundle ClassicApi if not subtype", "bundle ClassicApi if subtype"
        )
        report = check_dispatch_pattern(graph, "provider", "consumer", "subtype")
        assert [f.code for f in report.findings] == ["dispatch-overlap"]
        assert report.findings[0].message.endswith("hold together (when subtype)")

    def test_the_three_defect_codes_are_distinct(self):
        codes = {"dispatch-missing-give", "dispatch-missing-use", "dispatch-overlap"}
        assert len(codes) == 3


# ---------------------------------------------------------------------------
# Conflict detection
# ---------------------------------------------------------------------------

MERGED_SHAPE = """
agent shape; agent viewer;
type width: num; type height: num;
bundle Rectangle { give width = $w; give height = $h; }
bundle Square extends Rectangle { give $w = $h; }
shape -> viewer: bundle Rectangle
shape -> viewer: bundle Square
"""

CLASHING = """
agent a; agent b;
type angle: num;
a -> b: give angle = 90;
a -> b: give angle = 45;
"""


class TestDetectConflicts:
    @pytest.mark.parametrize("name", corpus.names())
    def test_the_corpus_is_conflict_free(self, name):
        assert detect_conflicts(load_corpus(name)) == []

    def test_unconditional_acceptance_overlaps_the_gated_one(self):
        graph = load_text(
            corpus.read("bank.pml") + "\naccount -> person: use priv_update;\n"
        )
        findings = detect_conflicts(graph)
        assert len(findings) >= 1
        worst = findings[0]
        assert worst.code == "channel-overlap"
        assert worst.severity == Severity.POLICY_VIOLATION
        assert "U(priv_update)" in worst.message

    def test_merged_agent_forces_independent_parameters_together(self):
        findings = detect_conflicts(load_text(MERGED_SHAPE))
        assert [f.code for f in findings] == ["channel-restricted"]
        assert findings[0].severity == Severity.RESTRICTED
        assert "bundle Rectangle" in findings[0].message
        assert "bundle Square" in findings[0].message

    def test_clashing_constants_are_inconsistent(self):
        findings = detect_conflicts(load_text(CLASHING))
        assert [f.code for f in findings] == ["channel-inconsistent"]
        assert findings[0].severity == Severity.INCONSISTENT
        assert "45" in findings[0].message and "90" in findings[0].message

    def test_exclusive_conditions_never_conjoin(self):
        text = (
            "agent a; agent b;\n"
            "type angle: num; flag f;\n"
            "b -> a: give f;\n"
            "a -> b: use f;\n"
            "a -> b: give angle = 90 if f;\n"
            "a -> b: give angle = 45 if not f;\n"
        )
        assert detect_conflicts(load_text(text)) == []

    def test_worst_findings_sort_first(self):
        graph = load_text(CLASHING + "a -> b: give angle = 90 if angle == 90;\n")
        findings = detect_conflicts(graph)
        severities = [f.severity for f in findings]
        assert severities == sorted(severities, reverse=True)

    def test_library_groups_name_their_scopes(self):
        graph = build_graph(
            [Agent("a"), Agent("b")],
            [PromiseTypeDecl("x", "num")],
            promises=[
                Promise("b", "a", use("x"), "g1"),
                Promise("a", "b", give("x", EqConstraint(Attribute("x"), P("y"))), "g2"),
                Promise("a", "b", give("x", EqConstraint(Attribute("x"), P("z"))), "g3"),
            ],
        )
        [finding] = detect_conflicts(graph)
        assert finding.code == "channel-restricted"
        assert finding.message.endswith(": g2 {$y} = g3 {$z}")

    def test_the_empty_group_shares_its_conditions_parameters(self):
        # In group "" (which build_graph never leaves) a body's $u is its
        # condition's $u; in any other group the body's $u is its own.
        gated = give(
            "y", EqConstraint(Attribute("y"), P("u")),
            condition=Condition.of(CmpLiteral(P("u"), "neq", NumConst(1))),
        )
        codes = {}
        for group in ("", "h"):
            graph = PromiseGraph(
                (Agent("a"), Agent("b")),
                (PromiseTypeDecl("y", "num"),),
                (),
                (
                    Promise("a", "b", gated, group),
                    Promise("a", "b", give("y", EqConstraint(Attribute("y"), NumConst(1))), "g"),
                ),
            )
            codes[group] = [f.code for f in detect_conflicts(graph)]
        assert codes == {"": ["channel-inconsistent", "channel-overlap"], "h": ["channel-overlap"]}


# One channel of direct promises, each a body and a gate; "{m}" marks where a
# string constant takes characters that the report's own formats use.
SCOPED_HEAD = "agent a, b;\ntype x: str;\ntype y: str;\nflag f;\nb -> a: give f;\n"
SCOPED_BODIES = [
    "give x = $v", "give x = $w", "give y = $w", "give $v = $w",
    'give x = "p{m}"', 'give y = "q{m}"', 'give $w = "p{m}"', 'give $v = "q{m}"',
]


@settings(max_examples=150)
@example([('give $w = "p{m}"', ""), ('give $v = "p{m}"', " if f")], "::")
@example([('give $w = "p{m}"', ""), ('give $w = "p{m}"', " if f")], "::")
@given(
    st.lists(
        st.tuples(
            st.sampled_from(SCOPED_BODIES), st.sampled_from(["", " if f", " if not f"])
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(["::", "|", "->", '\\"']),
)
def test_string_constants_do_not_change_conflicts(promises, mark):
    def codes(m: str) -> Counter:
        text = SCOPED_HEAD + "".join(
            f"a -> b: {body.format(m=m)}{gate};\n" for body, gate in promises
        )
        return Counter(f.code for f in detect_conflicts(load_text(text)))

    assert codes(mark) == codes("")


# A gate over a promised term, and two gates that each exclude one value:
# each finding's world reads as conditions, never as an assignment such as
# ``kind="v1"`` or ``$x=v0, $y=v1``.
WORLD_NAMED_MODELS = {
    "gate-on-a-promised-term": (
        "agent a, b;\ntype h: num;\ntype kind: str;\n"
        'a -> b: give kind = "v2";\n'
        'a -> b: give h = 1 if kind == "v1";\n'
        "a -> b: give h = 2;\n"
    ),
    "two-disequalities": (
        "agent a, b;\ntype w: num;\n"
        "a -> b: give w = $x if $x != 1;\n"
        "a -> b: give w = $y if $y != 2;\n"
    ),
}


@pytest.mark.parametrize("name", sorted(WORLD_NAMED_MODELS))
def test_every_finding_names_its_world_by_its_conditions(name, tmp_path):
    """Each finding of ``pml check`` names its world as ``(when a & b)``,
    ``a`` and ``b`` the ``Condition.text`` of conditions in the model, with
    no assignment of values to terms or flags."""
    text = WORLD_NAMED_MODELS[name]
    (tmp_path / "m.pml").write_text(text, encoding="utf-8")
    out = run_cli(tmp_path, ["check", "m.pml"])["stdout"]
    texts = {p.body.condition.text for p in load_text(text).promises}
    headers = [line for line in out.splitlines() if line.startswith("  [")]
    worlds = [w for line in headers for w in re.findall(r"\(when (.*?)\)", line)]
    assert len(headers) == len(worlds) == 2
    for world in worlds:
        assert set(world.split(" & ")) <= texts - {""}
    for notation in ("=true", "=false", '="', "v0"):
        assert not any(notation in line for line in headers)


# ---------------------------------------------------------------------------
# Class hierarchy
# ---------------------------------------------------------------------------

class TestClassHierarchy:
    def test_bank_splits_the_account_into_two_exclusive_subtypes(self):
        hierarchy = derive_class_hierarchy(load_corpus("bank.pml"))
        assert hierarchy.findings == ()
        by_role = {rc.role.label: rc for rc in hierarchy.classes}
        person = by_role["gives:cash_payment+customer+employee+name"]
        assert person.subtypes == ()
        assert person.base.bodies == (
            "+cash_payment",
            "+customer",
            "+employee",
            "+name=identity",
        )
        account = by_role["gives:account_functions+keep_money_safe"]
        assert account.base.bodies == (
            "+account_functions",
            "+keep_money_safe",
            "U(cash_payment)",
            "U(customer)",
            "U(employee)",
            "U(name)",
        )
        assert [(s.condition, s.bodies) for s in account.subtypes] == [
            ("name != owner and employee", ("U(priv_update)",)),
            ("name == owner and not employee", ("U(use_account)",)),
        ]

    def test_subtype_conditions_re_verify_as_exclusive(self):
        graph = load_corpus("bank.pml")
        hierarchy = derive_class_hierarchy(graph)
        account = hierarchy.classes[1]
        conds = []
        rep = account.role.members[0]
        for p in graph.promises_from(rep):
            if not p.body.condition.is_empty:
                conds.append(p.body.condition)
        distinct = list(dict.fromkeys(conds))
        assert len(distinct) == 2
        assert mutually_exclusive(distinct[0], distinct[1]).exclusive

    def test_unconditional_graph_has_no_subtypes(self):
        hierarchy = derive_class_hierarchy(load_corpus("web.pml"))
        assert all(rc.subtypes == () for rc in hierarchy.classes)
        assert hierarchy.findings == ()

    def test_three_way_exclusive_split(self):
        text = (
            "agent a; agent b;\n"
            "flag f; flag g;\n"
            "type s1: service; type s2: service; type s3: service;\n"
            "b -> a: give f;\nb -> a: give g;\n"
            "a -> b: use f;\na -> b: use g;\n"
            "a -> b: give s1 if f and g;\n"
            "a -> b: give s2 if f and not g;\n"
            "a -> b: give s3 if not f;\n"
        )
        hierarchy = derive_class_hierarchy(load_text(text))
        giver = next(rc for rc in hierarchy.classes if rc.role.members == ("a",))
        assert len(giver.subtypes) == 3
        assert hierarchy.findings == ()

    def test_overlapping_conditions_fold_into_the_base(self):
        text = (
            "agent a; agent b;\n"
            "flag f; flag g;\n"
            "type s1: service; type s2: service;\n"
            "b -> a: give f;\nb -> a: give g;\n"
            "a -> b: use f;\na -> b: use g;\n"
            "a -> b: give s1 if f;\n"
            "a -> b: give s2 if not g;\n"
        )
        hierarchy = derive_class_hierarchy(load_text(text))
        giver = next(rc for rc in hierarchy.classes if rc.role.members == ("a",))
        assert giver.subtypes == ()
        assert "+s1 if f" in giver.base.bodies
        assert "+s2 if not g" in giver.base.bodies
        overlap = [f for f in hierarchy.findings if f.code == "hierarchy-overlap"]
        assert len(overlap) == 1
        assert overlap[0].severity == Severity.PATTERN_ERROR


# ---------------------------------------------------------------------------
# Property-based: extension preorder and renaming invariance
# ---------------------------------------------------------------------------

ATTR_NAMES = ["width", "height", "angle"]
PARAM_NAMES = ["a", "b", "c"]

body_st = st.one_of(
    st.builds(
        lambda t, p: give(t, EqConstraint(Attribute(t), Parameter(p))),
        st.sampled_from(ATTR_NAMES),
        st.sampled_from(PARAM_NAMES),
    ),
    st.builds(
        lambda t, v: give(t, EqConstraint(Attribute(t), NumConst(v))),
        st.sampled_from(ATTR_NAMES),
        st.integers(0, 2),
    ),
    st.builds(
        lambda p, q: link(Parameter(p), Parameter(q)),
        st.sampled_from(PARAM_NAMES),
        st.sampled_from(PARAM_NAMES),
    ).filter(lambda b: len({t for c in b.constraints for t in c.terms()}) == 2),
)

bundle_st = st.builds(
    lambda bodies: Bundle("G", tuple(bodies)), st.lists(body_st, max_size=4)
)


def rename_params(bundle: Bundle, mapping: dict[str, str]) -> Bundle:
    def fix_term(t):
        return Parameter(mapping[t.name]) if isinstance(t, Parameter) else t

    bodies = []
    for body in bundle.bodies:
        constraints = frozenset(
            EqConstraint(fix_term(c.lhs), fix_term(c.rhs)) for c in body.constraints
        )
        bodies.append(PromiseBody(body.polarity, body.type, constraints, body.condition))
    return Bundle(bundle.name, tuple(bodies), bundle.parent)


@settings(max_examples=150)
@given(bundle_st, st.permutations(PARAM_NAMES))
def test_signature_survives_parameter_permutation(bundle, perm):
    mapping = dict(zip(PARAM_NAMES, perm))
    assert bundle_signature(bundle) == bundle_signature(rename_params(bundle, mapping))


@settings(max_examples=100)
@given(bundle_st)
def test_extension_is_reflexive(bundle):
    assert check_extension(bundle, bundle)


@settings(max_examples=100)
@given(bundle_st, st.lists(body_st, max_size=2), st.lists(body_st, max_size=2))
def test_extension_is_transitive_along_body_growth(base, extra1, extra2):
    mid = Bundle("M", base.bodies + tuple(extra1))
    top = Bundle("T", mid.bodies + tuple(extra2))
    assert check_extension(mid, base)
    assert check_extension(top, mid)
    assert check_extension(top, base)


@settings(max_examples=80)
@given(bundle_st, bundle_st, st.permutations(PARAM_NAMES))
def test_is_a_verdict_survives_parameter_permutation(child, parent, perm):
    mapping = dict(zip(PARAM_NAMES, perm))
    try:
        plain = check_is_a(child, parent).outcome
    except UnsatisfiableError:
        assume(False)
    renamed = check_is_a(rename_params(child, mapping), parent).outcome
    assert plain == renamed


@settings(max_examples=80)
@given(bundle_st)
def test_everything_satisfiable_is_itself(bundle):
    try:
        verdict = check_is_a(bundle, bundle)
    except UnsatisfiableError:
        assume(False)
    assert verdict.outcome == IS_A


# ---------------------------------------------------------------------------
# World enumeration: the subset sweep as oracle, and a counted cost bound
# ---------------------------------------------------------------------------

X, Y, Z = Attribute("x"), Attribute("y"), Attribute("z")
CONDITION_TERMS = [X, Y, Z, P("p"), P("q"), NumConst(1), NumConst(2)]

literal_st = st.one_of(
    st.builds(FlagLiteral, st.sampled_from(["f", "g", "h"]), st.booleans()),
    st.builds(
        CmpLiteral,
        st.sampled_from(CONDITION_TERMS),
        st.sampled_from(["eq", "neq"]),
        st.sampled_from(CONDITION_TERMS),
    ),
)
condition_st = st.builds(Condition, st.frozensets(literal_st, max_size=3))


def eq(a, b) -> Condition:
    return Condition.of(CmpLiteral(a, "eq", b))


def neq(a, b) -> Condition:
    return Condition.of(CmpLiteral(a, "neq", b))


def worlds(scenarios) -> list[tuple]:
    """Each world's conditions and premises, premises as multisets."""
    return [(s.active, Counter(s.eqs), Counter(s.neqs)) for s in scenarios]


@settings(max_examples=300)
@example([eq(X, Y), eq(Y, Z), neq(X, Z)])
@example([eq(X, NumConst(1)), eq(Y, NumConst(1)), neq(X, Y)])
@example(  # two components whose worlds interleave in index order
    [
        Condition.of(FlagLiteral("f"), FlagLiteral("g", True)),
        Condition.of(FlagLiteral("f", True), FlagLiteral("g")),
        Condition.of(FlagLiteral("f", True), FlagLiteral("g", True)),
        Condition.of(FlagLiteral("h")),
        Condition.of(FlagLiteral("h", True)),
    ]
)
@given(st.lists(condition_st, max_size=8))
def test_scenarios_match_the_subset_sweep(family):
    assert worlds(promisekit.worlds.worlds(family)) == worlds(reference_scenarios(family))


# Flag-only families over six flags: the masks number more flags than the
# three of ``condition_st``, and decide every conjunction without a closure.
flag_condition_st = st.builds(
    Condition,
    st.frozensets(
        st.builds(FlagLiteral, st.sampled_from(["a", "b", "c", "d", "e", "f"]), st.booleans()),
        max_size=3,
    ),
)


@settings(max_examples=150)
@given(st.lists(flag_condition_st, max_size=10))
def test_flag_masks_match_the_oracles(family):
    # reference_scenarios picks its subsets with condition_satisfiable, so
    # that is checked against the oracle as well, on every prefix.
    for n in range(len(family) + 1):
        assert condition_satisfiable(*family[:n]) == oracle_conditions_satisfiable(family[:n])
    assert worlds(promisekit.worlds.worlds(family)) == worlds(reference_scenarios(family))
    pairs = list(pairwise_exclusive(family))
    assert pairs == [
        (i, j)
        for i, j in itertools.combinations(range(len(family)), 2)
        if not oracle_mutually_exclusive(family[i], family[j])
    ]
    assert pairs == [
        (i, j)
        for i, j in itertools.combinations(range(len(family)), 2)
        if mutually_exclusive(family[i], family[j]).witness is not None
    ]


def test_world_count_not_subset_count_sets_the_cost(monkeypatch):
    # Count every call of the compiled satisfiability test that ``worlds``
    # makes, whichever function of it asks.
    calls = 0
    make_test = promisekit.constraints.ConditionTable.subset_test

    def counting_test(table, conditions):
        fits = make_test(table, conditions)

        def counting(indices):
            nonlocal calls
            calls += 1
            return fits(indices)

        return counting

    monkeypatch.setattr(promisekit.constraints.ConditionTable, "subset_test", counting_test)
    closures = count_calls(monkeypatch, promisekit.constraints, "closure")
    family = [Condition.of(FlagLiteral(f"g{i}")) for i in range(20)] + [
        Condition.of(FlagLiteral(name, negated))
        for name in ("a", "b")
        for negated in (False, True)
    ]
    scenarios = promisekit.worlds.worlds(family)
    assert len(scenarios) == 4
    assert all(len(s.active) == 22 for s in scenarios)
    # The subset sweep needed 2^24 tests here; k^2 bounds the enumeration.
    assert 0 < calls <= len(family) ** 2
    # Flag-only conditions are decided on their masks.
    assert closures["calls"] == 0


# ---------------------------------------------------------------------------
# Conflict detection pays once per distinct condition set, not per channel
# ---------------------------------------------------------------------------

def ring_text(n: int) -> str:
    """n agents in a ring: each attaches one bundle with a gated body to its
    successor and gives it a direct load too, so every successor channel
    holds the same condition and the same overlapping pair."""
    agents = [f"a{i}" for i in range(n)]
    lines = [
        f"agent {', '.join(agents)};",
        "type token: num;",
        "type load: num;",
        "flag ready;",
        "bundle Feed { give token = $t; give load = $t if ready; }",
    ]
    for i, a in enumerate(agents):
        succ, pred = agents[(i + 1) % n], agents[i - 1]
        lines += [
            f"{a} -> {succ}: bundle Feed",
            f"{a} -> {succ}: give load = $x;",
            f"{a} -> {pred}: give ready;",
            f"{a} -> {pred}: use token;",
        ]
    return "\n".join(lines) + "\n"


def wrap_calls(monkeypatch, module, name: str, hook) -> None:
    """Wrap ``module.name`` wherever a promisekit module binds it, as the
    benchmark's tracer does: each call first passes its arguments to
    ``hook``."""
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        hook(*args, **kwargs)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "promisekit" or mod_name.startswith("promisekit."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, wrapped)


def count_calls(monkeypatch, module, name: str) -> Counter:
    """Wrap ``module.name`` as ``wrap_calls`` does; the counter's ``calls``
    rises per call."""
    counter: Counter = Counter()
    wrap_calls(monkeypatch, module, name, lambda *args, **kwargs: counter.update(["calls"]))
    return counter


def count_pair_verdicts(monkeypatch) -> Counter:
    """Count the pair verdicts of ``pairwise_exclusive``: the counter's
    ``calls`` rises per ``_conjoin`` that it makes, and not for those of
    the world search or of any other caller."""
    counter: Counter = Counter()

    def hook(*args) -> None:
        # Frame 1 is the wrapper; frame 2 called it.
        if sys._getframe(2).f_code.co_name == "pairwise_exclusive":
            counter["calls"] += 1

    wrap_calls(monkeypatch, promisekit.constraints, "_conjoin", hook)
    return counter


def test_conflict_detection_judges_each_condition_set_once(monkeypatch):
    graphs = {n: load_text(ring_text(n)) for n in (25, 50)}
    counts = {}
    findings = {}
    for n, graph in graphs.items():
        with monkeypatch.context() as patch:
            counters = {
                "closure": count_calls(patch, promisekit.constraints, "closure"),
                "compile": count_compiles(patch),
                "verdict": count_pair_verdicts(patch),
                "worlds": count_calls(patch, promisekit.worlds, "worlds"),
            }
            findings[n] = detect_conflicts(graph)
        counts[n] = {name: c["calls"] for name, c in counters.items()}
    assert Counter(f.code for f in findings[25]) == {
        "channel-overlap": 25, "channel-restricted": 25
    }
    assert len(findings[50]) == 2 * len(findings[25])
    assert counts[25] == counts[50]
    # One distinct non-empty condition set, and one distinct condition pair,
    # `ready` with the empty condition: two conditions to compile.  The one
    # closure is that of the one world of the one channel shape: the
    # flag-only pair and the world search are decided on masks.
    assert counts[25]["worlds"] == 1
    assert counts[25]["verdict"] == 1
    assert counts[25]["compile"] == 2
    assert counts[25]["closure"] == 1


def test_overlap_verdicts_are_judged_once_per_pair_per_family(monkeypatch):
    # Two channels of different shapes, whose promisers are two roles, hold
    # the same pair of overlapping conditions.  No verdict is kept between
    # families: each channel shape and each role judges its pair once.
    graph = load_text(
        "agent a, b, c, d;\n"
        "type t: num;\n"
        "type u: num;\n"
        "flag p;\n"
        "flag q;\n"
        "a -> b: give t = 1 if p;\n"
        "a -> b: give t = 2 if q;\n"
        "c -> d: give t = 1 if p;\n"
        "c -> d: give t = 2 if q;\n"
        "c -> d: give u = 3;\n"
    )
    verdicts = count_pair_verdicts(monkeypatch)
    overlaps = [f for f in detect_conflicts(graph) if f.code == "channel-overlap"]
    assert len(overlaps) == 2
    assert verdicts["calls"] == 2
    hierarchy = derive_class_hierarchy(graph)
    assert [f.code for f in hierarchy.findings] == ["hierarchy-overlap"] * 2
    assert verdicts["calls"] == 4


def count_compiles(monkeypatch) -> Counter:
    """Count each condition that a ``ConditionTable`` compiles."""
    table_class = promisekit.constraints.ConditionTable
    real = table_class.__missing__
    counter: Counter = Counter()

    def counting(table, cond):
        counter["calls"] += 1
        return real(table, cond)

    monkeypatch.setattr(table_class, "__missing__", counting)
    return counter


def dispatch_text(n: int) -> str:
    """One channel of n promises, each gated on its own value of ``kind``."""
    lines = ["agent r, s;", "type h: num;", "type kind: str;", "r -> s: give kind;"]
    lines += [f's -> r: give h = {i} if kind == "v{i}";' for i in range(n)]
    return "\n".join(lines) + "\n"


def test_conflict_detection_compiles_each_condition_once(monkeypatch):
    # The n conditions are pairwise exclusive: n(n-1)/2 verdicts and the
    # world search ask about them, and each is compiled once.
    graph = load_text(dispatch_text(50))
    compiles = count_compiles(monkeypatch)
    assert detect_conflicts(graph) == []
    assert compiles["calls"] <= 50


def flags_channel_text(k: int) -> str:
    """``flags_text(k)`` with the channel promises of the ``flags``
    benchmark model: y gives x every flag, and x gives y each gated type
    under its gate, a constant per gate."""
    flags = [f"g{i}" for i in range(k - 4)] + ["fa", "fb"]
    lines = [f"y -> x: give {f};" for f in flags]
    lines += [f"x -> y: give v{i} = {i + 1} if g{i};" for i in range(k - 4)]
    lines += [
        "x -> y: give ma = 1 if fa;", "x -> y: give ma = 2 if not fa;",
        "x -> y: give mb = 1 if fb;", "x -> y: give mb = 2 if not fb;",
    ]
    return flags_text(k) + "\n".join(lines) + "\n"


def test_is_a_searches_its_worlds_once(monkeypatch):
    # The two sides are walked together once, and no side is judged alone
    # unless they clash.  The world closures are those that
    # test_restriction_engine pins, and flag-only conditions add none.
    graph = load_text(flags_text(12))
    counts = {}
    for child, parent in (("C", "P"), ("RC", "SP"), ("RC", "RP")):
        with monkeypatch.context() as patch:
            searches = count_calls(patch, promisekit.worlds, "worlds")
            closures = count_calls(patch, promisekit.constraints, "closure")
            check_is_a(graph.bundle(child), graph.bundle(parent))
        counts[child, parent] = (searches["calls"], closures["calls"])
    assert counts == {("C", "P"): (1, 8), ("RC", "SP"): (1, 8), ("RC", "RP"): (1, 8)}
    # ClassicApi and ExtendedApi force "plain" and "rich" together: after
    # the one joint closure, each side alone is closed once, on the world
    # that the joint walk's search already found.
    dispatch = load_corpus("dispatch.pml")
    searches = count_calls(monkeypatch, promisekit.worlds, "worlds")
    closures = count_calls(monkeypatch, promisekit.constraints, "closure")
    verdict = check_is_a(dispatch.bundle("ExtendedApi"), dispatch.bundle("ClassicApi"))
    assert verdict.outcome == INCONSISTENT
    assert (searches["calls"], closures["calls"]) == (1, 3)


def test_is_a_compiles_each_condition_once(monkeypatch):
    # The two together are walked on one table, and f and g are each
    # compiled once.
    graph = load_text(
        "flag f;\n"
        "flag g;\n"
        "type width: num;\n"
        "type height: num;\n"
        "bundle P { give width = $a if f; give height = $b if g; }\n"
        "bundle C { give width = $x if g; }\n"
    )
    compiles = count_compiles(monkeypatch)
    assert check_is_a(graph.bundle("C"), graph.bundle("P")).outcome == IS_A
    assert compiles["calls"] == 2


def test_flag_only_conditions_need_no_closure(monkeypatch):
    graph = load_text(flags_channel_text(12))
    closures = count_calls(monkeypatch, promisekit.constraints, "closure")
    hierarchy = derive_class_hierarchy(graph)
    # C(12, 2) gate pairs, less the two pairs of a flag and its negation.
    assert len(hierarchy.findings) == 64
    assert closures["calls"] == 0
    # The conflicts close one world per world of x -> y: four.
    assert detect_conflicts(graph) == []
    assert closures["calls"] == 4


def test_each_condition_is_printed_once_per_request(monkeypatch, tmp_path):
    # Every request that the flags benchmark makes at k = 12: the resolver's
    # groups, the world sorts, the world labels and the class hierarchy all
    # read one text per condition object.  The printed conditions are kept,
    # so that no id is reused within a request.
    (tmp_path / "flags.pml").write_text(flags_channel_text(12), encoding="utf-8")
    printed: list = []
    wrap_calls(monkeypatch, promisekit.model, "format_condition", printed.append)
    for argv in (
        ["check", "flags.pml"],
        ["classes", "--json", "flags.pml"],
        ["isa", "flags.pml", "C", "P"],
        ["isa", "--json", "flags.pml", "RC", "SP"],
        ["isa", "flags.pml", "RC", "RP"],
    ):
        printed.clear()
        assert run_cli(tmp_path, argv)["exit"] in (0, 1)
        assert printed and max(Counter(map(id, printed)).values()) == 1, argv


def closures_per_call(monkeypatch, graph) -> int:
    """The world closures one ``detect_conflicts`` call makes."""
    real, calls = promisekit.worlds.closure, []
    with monkeypatch.context() as patch:
        patch.setattr(promisekit.worlds, "closure", lambda *args: calls.append(1) or real(*args))
        detect_conflicts(graph)
    return len(calls)


def test_conflict_detection_judges_each_channel_shape_once(monkeypatch):
    # Every successor channel of the ring holds the same bodies in the same
    # scopes: one shape, one world, one closure, whatever the ring's size.
    assert [closures_per_call(monkeypatch, load_text(ring_text(n))) for n in (10, 40)] == [1, 1]
    # A distinct constant per direct body makes every channel's shape its
    # own: one closure per world (only {ready}) per channel.
    distinct = load_text(
        "".join(
            line.replace("give load = $x;", f"give load = {i};")
            for i, line in enumerate(ring_text(10).splitlines(keepends=True))
        )
    )
    assert len({p.body for p in distinct.promises if p.body.type == "load"}) == 11
    assert closures_per_call(monkeypatch, distinct) == 10


# Library-built channels that share bodies and scopes, or share bodies and
# split them into scopes differently.  Each promise gets a fresh body object,
# so equal bodies on different channels are equal values, not one object.
LIB_BODIES = [
    lambda: give("x", EqConstraint(Attribute("x"), P("t"))),
    lambda: give("y", EqConstraint(Attribute("y"), P("t")),
                 condition=Condition.of(FlagLiteral("f"))),
    lambda: give("x", EqConstraint(Attribute("x"), P("u"))),
    lambda: give("y", EqConstraint(Attribute("y"), NumConst(1))),
    lambda: give("x", EqConstraint(Attribute("x"), NumConst(2)),
                 condition=Condition.of(FlagLiteral("f", negated=True))),
    lambda: link(P("t"), P("u")),
    lambda: use("x"),
    lambda: give("y", EqConstraint(Attribute("y"), P("u")),
                 condition=Condition.of(CmpLiteral(P("u"), "neq", NumConst(1)))),
]
# "bundle B" is also the label of the group "bundle:B".
LIB_GROUPS = ["", "g", "h", "bundle B", "bundle:B"]
LIB_CHANNELS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")]


@st.composite
def shared_channels(draw) -> list[Promise]:
    bodies = draw(st.lists(st.integers(0, len(LIB_BODIES) - 1), min_size=1, max_size=4))
    groups = st.lists(st.sampled_from(LIB_GROUPS), min_size=len(bodies), max_size=len(bodies))
    shared_groups = draw(groups)
    promises = []
    for p, q in draw(st.lists(st.sampled_from(LIB_CHANNELS), min_size=1, max_size=4, unique=True)):
        own = draw(st.one_of(st.just(shared_groups), groups))
        promises += [
            Promise(p, q, LIB_BODIES[b](), g) for b, g in zip(bodies, own)
        ]
    return promises


def lib_channels(*channels) -> list[Promise]:
    return [
        Promise(p, q, LIB_BODIES[b](), g)
        for (p, q), entries in channels
        for b, g in entries
    ]


@settings(max_examples=300, deadline=None)
# The empty group shares scope "" with the condition's parameters.
@example(lib_channels((("a", "b"), [(7, ""), (2, "")]), (("a", "c"), [(7, ""), (2, "g")])))
# A group, "bundle B", named like another group's label, on the same channel.
@example(lib_channels(
    (("a", "b"), [(0, "bundle B"), (2, "bundle:B")]),
    (("a", "c"), [(0, "bundle B"), (2, "bundle:B")]),
))
# The same bodies in one scope on one channel and in two on the next.
@example(lib_channels((("a", "b"), [(0, "g"), (2, "g")]), (("a", "c"), [(0, "g"), (2, "h")])))
@given(shared_channels())
def test_shared_channel_verdicts_match_judging_each_channel_alone(promises):
    agents = tuple(Agent(name) for name in "abc")
    types = (PromiseTypeDecl("x", "num"), PromiseTypeDecl("y", "num"))
    graph = PromiseGraph(agents, types, (), tuple(promises))
    alone = [
        finding
        for channel_promises in graph.channels().values()
        for finding in detect_conflicts(PromiseGraph(agents, types, (), channel_promises))
    ]
    assert detect_conflicts(graph) == sorted(alone, key=finding_sort_key)


# Names holding "->", so that two channels can print one head: "a -> b" ->
# "c" and "a" -> "b -> c" both print "a -> b -> c: ", "a ->" -> "c" and
# "a" -> "-> c" both print "a -> -> c: ".
HEAD_AGENTS = ["a", "b", "c", "a -> b", "b -> c", "a ->", "-> c"]
HEAD_CHANNELS = [
    ("a -> b", "c"), ("a", "b -> c"), ("a ->", "c"), ("a", "-> c"), ("a", "b"), ("c", "a -> b"),
]


def head_graph(promises) -> PromiseGraph:
    agents = tuple(Agent(name) for name in HEAD_AGENTS)
    types = (PromiseTypeDecl("x", "num"), PromiseTypeDecl("y", "num"))
    return PromiseGraph(agents, types, (), tuple(promises))


@st.composite
def named_channels(draw) -> list[Promise]:
    """At most four channels, each of one of at most two shapes; a shape
    may attach its first body through a second group, so that two of its
    promises print alike."""
    entry = st.tuples(st.integers(0, len(LIB_BODIES) - 1), st.sampled_from(LIB_GROUPS))
    shapes = draw(st.lists(st.lists(entry, min_size=1, max_size=3), min_size=1, max_size=2))
    for shape in shapes:
        if draw(st.booleans()):
            body, group = shape[0]
            shape.append((body, draw(st.sampled_from([g for g in LIB_GROUPS if g != group]))))
    channels = draw(st.lists(st.sampled_from(HEAD_CHANNELS), min_size=1, max_size=4, unique=True))
    return lib_channels(*((channel, draw(st.sampled_from(shapes))) for channel in channels))


HEAD_COLLISION = lib_channels(
    (("a -> b", "c"), [(0, "g"), (4, "g")]), (("a", "b -> c"), [(0, "g"), (4, "g")])
)


@settings(max_examples=300, deadline=None)
@example(HEAD_COLLISION)
# One body through two groups, on two channels that print one head.
@example(lib_channels(
    (("a ->", "c"), [(0, "g"), (5, "g"), (0, "h"), (4, "h")]),
    (("a", "-> c"), [(0, "g"), (5, "g"), (0, "h"), (4, "h")]),
))
@given(named_channels())
def test_findings_are_named_as_each_channel_would_name_them(promises):
    graph = head_graph(promises)
    assert detect_conflicts(graph) == reference_findings(graph)


def test_channels_that_print_one_head_keep_one_finding():
    [finding] = detect_conflicts(head_graph(HEAD_COLLISION))
    assert finding.message.startswith("a -> b -> c: ")
    assert finding.promises == ("a -> b -> c: +x=$t", "a -> b -> c: +x=2 if not f")


def test_conflict_detection_names_each_channel_shape_once(monkeypatch):
    # Every successor channel of the ring shares one shape, whose findings
    # are named once: no promise is formatted for any channel.
    graph = load_text(ring_text(50))
    real, calls = Promise.formatted, []
    monkeypatch.setattr(Promise, "formatted", lambda p: calls.append(p) or real(p))
    findings = detect_conflicts(graph)
    assert Counter(f.code for f in findings) == {"channel-overlap": 50, "channel-restricted": 50}
    assert calls == []
