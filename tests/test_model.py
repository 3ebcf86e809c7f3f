"""Core model layer: terms, bodies, bundles, graph assembly, autonomy."""
from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from promisekit.errors import (
    BundleCycleError,
    DanglingReferenceError,
    DuplicateNameError,
    InvalidBodyError,
)
from promisekit.model import (
    Agent,
    ALWAYS,
    Attribute,
    build_graph,
    Bundle,
    bundle_group,
    CmpLiteral,
    Condition,
    derive_group,
    EqConstraint,
    flatten_bundles,
    FlagLiteral,
    format_body,
    format_condition,
    format_number,
    format_term,
    give,
    KIND_FLAG,
    KIND_NUM,
    KIND_SERVICE,
    KIND_STR,
    link,
    NamedConst,
    NumConst,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    PromiseTypeDecl,
    StrConst,
    term_key,
    use,
    validate_autonomy,
)

from bruteforce import (
    scan_channels,
    scan_given_types,
    scan_promises_from,
    scan_promises_to,
)

WIDTH = Attribute("width")
HEIGHT = Attribute("height")
W = Parameter("w")
H = Parameter("h")


# ---------------------------------------------------------------------------
# Terms and constraints
# ---------------------------------------------------------------------------

class TestTerms:
    def test_order_puts_constants_before_symbols(self):
        ordered = sorted(
            [W, WIDTH, NamedConst("k"), StrConst("s"), NumConst(1)], key=term_key
        )
        assert ordered == [NumConst(1), StrConst("s"), NamedConst("k"), WIDTH, W]

    def test_int_and_equal_float_share_a_key(self):
        assert term_key(NumConst(4)) == term_key(NumConst(4.0))

    def test_formatting(self):
        assert format_term(WIDTH) == "width"
        assert format_term(W) == "$w"
        assert format_term(NumConst(90)) == "90"
        assert format_term(NumConst(2.5)) == "2.5"
        assert format_number(3.0) == "3"
        assert format_term(StrConst("hi")) == '"hi"'
        assert format_term(StrConst('a"b')) == '"a\\"b"'
        assert format_term(StrConst("a\r\nb")) == '"a\\r\\nb"'
        assert format_term(NamedConst("owner")) == "owner"

    def test_scoped_parameter_prints_without_its_scope_tag(self):
        assert format_term(Parameter("w", "child")) == "$w"

    def test_parameters_order_by_scope_then_name(self):
        params = [Parameter("a", "s2"), Parameter("b", "s1"), Parameter("a", "s1"), W]
        assert sorted(params, key=term_key) == [
            W, Parameter("a", "s1"), Parameter("b", "s1"), Parameter("a", "s2")
        ]

    def test_equality_constraints_are_order_normalized(self):
        assert EqConstraint(W, WIDTH) == EqConstraint(WIDTH, W)
        assert {EqConstraint(W, WIDTH)} == {EqConstraint(WIDTH, W)}


class TestConditionsFormatting:
    def test_empty_condition_formats_blank(self):
        assert format_condition(ALWAYS) == ""

    def test_literals_format_in_canonical_order(self):
        cond = Condition.of(
            FlagLiteral("employee", negated=True),
            CmpLiteral(Attribute("name"), "eq", NamedConst("owner")),
        )
        assert format_condition(cond) == "name == owner and not employee"


# ---------------------------------------------------------------------------
# Bodies
# ---------------------------------------------------------------------------

class TestBodies:
    def test_use_bodies_reject_constraints(self):
        with pytest.raises(InvalidBodyError):
            PromiseBody("use", "width", frozenset({EqConstraint(WIDTH, W)}))

    def test_unknown_polarity_rejected(self):
        with pytest.raises(InvalidBodyError):
            PromiseBody("offer", "width")

    def test_link_is_a_constraint_only_give(self):
        body = link(W, H)
        assert body.is_link
        assert body.polarity == "give"
        assert body.constraints == frozenset({EqConstraint(W, H)})

    def test_formatting(self):
        assert format_body(give("width", EqConstraint(WIDTH, W))) == "+width=$w"
        assert format_body(give("angle", EqConstraint(Attribute("angle"), NumConst(90)))) == "+angle=90"
        assert format_body(use("cash_payment")) == "U(cash_payment)"
        assert format_body(link(H, W)) == "+$h=$w"
        cond = Condition.of(FlagLiteral("employee"))
        assert format_body(use("priv", cond)) == "U(priv) if employee"


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

def rect_bundle() -> Bundle:
    return Bundle(
        "Rectangle",
        (
            give("width", EqConstraint(WIDTH, W)),
            give("height", EqConstraint(HEIGHT, H)),
        ),
    )


def square_bundle() -> Bundle:
    return Bundle("Square", (link(W, H),), parent="Rectangle")


class TestBundles:
    def test_child_inherits_parent_bodies(self):
        flat = flatten_bundles([rect_bundle(), square_bundle()])
        square = next(b for b in flat if b.name == "Square")
        assert len(square.bodies) == 3
        assert square.bodies[:2] == rect_bundle().bodies

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateNameError):
            flatten_bundles([rect_bundle(), rect_bundle()])

    def test_unknown_parent_rejected(self):
        with pytest.raises(DanglingReferenceError):
            flatten_bundles([square_bundle()])

    def test_cycle_rejected(self):
        a = Bundle("A", (), parent="B")
        b = Bundle("B", (), parent="A")
        with pytest.raises(BundleCycleError) as exc:
            flatten_bundles([a, b])
        assert "->" in str(exc.value)

    def test_chain_deeper_than_the_stack_declared_child_first(self):
        depth = 3000
        chain = [Bundle(f"B{i}", (), parent=f"B{i - 1}") for i in range(depth, 0, -1)]
        flat = flatten_bundles(chain + [Bundle("B0", rect_bundle().bodies[:1])])
        assert len(flat) == depth + 1
        assert all(b.bodies == rect_bundle().bodies[:1] for b in flat)

    def test_repeated_inherited_body_not_duplicated(self):
        child = Bundle("Child", rect_bundle().bodies[:1], parent="Rectangle")
        flat = flatten_bundles([rect_bundle(), child])
        got = next(b for b in flat if b.name == "Child")
        assert len(got.bodies) == 2


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_name_with_an_empty_segment_rejected(self):
        for name in ("", "a..b", "a.", ".a"):
            with pytest.raises(ValueError):
                build_graph([], [PromiseTypeDecl(name, KIND_NUM)])

    def test_dotted_name_is_one_name(self):
        graph = build_graph([], [PromiseTypeDecl("a.b", KIND_NUM)])
        assert graph.types == (PromiseTypeDecl("a.b", KIND_NUM),)

    def test_duplicate_type_rejected(self):
        decls = [PromiseTypeDecl("w", KIND_NUM), PromiseTypeDecl("w", KIND_NUM)]
        with pytest.raises(DuplicateNameError):
            build_graph([], decls)


# ---------------------------------------------------------------------------
# Graph assembly
# ---------------------------------------------------------------------------

AGENTS = [Agent.make("rect"), Agent.make("viewer")]
TYPES = [PromiseTypeDecl("width", KIND_NUM), PromiseTypeDecl("height", KIND_NUM)]


def width_promise() -> Promise:
    return Promise("rect", "viewer", give("width", EqConstraint(WIDTH, W)))


class TestBuildGraph:
    def test_round_trip_accessors(self):
        graph = build_graph(AGENTS, TYPES, [rect_bundle()], [width_promise()])
        assert graph.agent("rect").name == "rect"
        assert [a.name for a in graph.agents] == ["rect", "viewer"]
        assert {t.name: t.kind for t in graph.types} == {"width": KIND_NUM, "height": KIND_NUM}
        assert graph.bundle("Rectangle") is not None
        assert graph.bundle("Ghost") is None

    def test_duplicate_agent_rejected(self):
        with pytest.raises(DuplicateNameError):
            build_graph([Agent.make("a"), Agent.make("a")], [])

    def test_unknown_promiser_rejected(self):
        with pytest.raises(DanglingReferenceError):
            build_graph(AGENTS, TYPES, [], [Promise("ghost", "viewer", use("width"))])

    def test_unknown_promisee_rejected(self):
        with pytest.raises(DanglingReferenceError):
            build_graph(AGENTS, TYPES, [], [Promise("rect", "ghost", use("width"))])

    def test_unknown_body_type_rejected(self):
        with pytest.raises(DanglingReferenceError):
            build_graph(AGENTS, TYPES, [], [Promise("rect", "viewer", give("area"))])

    def test_unknown_constraint_reference_rejected(self):
        body = give("width", EqConstraint(Attribute("area"), W))
        with pytest.raises(DanglingReferenceError):
            build_graph(AGENTS, TYPES, [], [Promise("rect", "viewer", body)])

    def test_unknown_condition_reference_rejected(self):
        cond = Condition.of(FlagLiteral("vip"))
        with pytest.raises(DanglingReferenceError):
            build_graph(AGENTS, TYPES, [], [Promise("rect", "viewer", use("width", cond))])

    def test_named_constants_need_no_declaration(self):
        body = give("width", EqConstraint(WIDTH, NamedConst("default_width")))
        graph = build_graph(AGENTS, TYPES, [], [Promise("rect", "viewer", body)])
        assert len(graph.promises) == 1

    def test_identical_promises_in_one_group_deduplicate(self):
        graph = build_graph(AGENTS, TYPES, [], [width_promise(), width_promise()])
        assert len(graph.promises) == 1

    def test_same_body_in_distinct_groups_kept_apart(self):
        body = give("width", EqConstraint(WIDTH, W))
        p1 = Promise("rect", "viewer", body, group="g1")
        p2 = Promise("rect", "viewer", body, group="g2")
        graph = build_graph(AGENTS, TYPES, [], [p1, p2])
        assert len(graph.promises) == 2

    def test_promises_come_out_sorted_regardless_of_input_order(self):
        bodies = [give("width"), give("height"), use("width")]
        promises = [Promise("rect", "viewer", b) for b in bodies]
        g1 = build_graph(AGENTS, TYPES, [], promises)
        g2 = build_graph(AGENTS, TYPES, [], promises[::-1])
        assert g1.promises == g2.promises

    def test_channels_group_by_direction(self):
        promises = [
            Promise("rect", "viewer", give("width")),
            Promise("viewer", "rect", use("width")),
        ]
        graph = build_graph(AGENTS, TYPES, [], promises)
        assert set(graph.channels()) == {("rect", "viewer"), ("viewer", "rect")}
        assert graph.given_types("rect", "viewer") == {"width"}
        assert graph.given_types("viewer", "rect") == frozenset()

    def test_group_ids_derive_from_content(self):
        body = give("width", EqConstraint(WIDTH, W))
        assert derive_group(body) == "body:+width=$w"
        assert bundle_group("Rectangle") == "bundle:Rectangle"


# ---------------------------------------------------------------------------
# Autonomy validation
# ---------------------------------------------------------------------------

def bank_like_graph(*, promise_flag_back: bool) -> "PromiseGraph":
    agents = [Agent.make("person"), Agent.make("account")]
    types = [
        PromiseTypeDecl("name", KIND_STR),
        PromiseTypeDecl("employee", KIND_FLAG),
        PromiseTypeDecl("priv", KIND_SERVICE),
    ]
    promises = [Promise("person", "account", give("name"))]
    if promise_flag_back:
        promises.append(Promise("person", "account", give("employee")))
    cond = Condition.of(FlagLiteral("employee"))
    promises.append(Promise("account", "person", use("priv", cond)))
    return build_graph(agents, types, [], promises)


class TestAutonomy:
    def test_condition_on_promised_flag_is_fine(self):
        assert validate_autonomy(bank_like_graph(promise_flag_back=True)) == []

    def test_condition_on_unpromised_flag_is_flagged(self):
        findings = validate_autonomy(bank_like_graph(promise_flag_back=False))
        assert len(findings) == 1
        assert findings[0].type_name == "employee"
        assert "never promises" in findings[0].message

    def test_private_attribute_satisfies_the_condition(self):
        """Only for the agent that holds it: ``c`` watches the same name and
        is flagged."""
        agents = [
            Agent.make("a", {"threshold": NumConst(3)}),
            Agent.make("b"),
            Agent.make("c"),
        ]
        types = [
            PromiseTypeDecl("threshold", KIND_NUM),
            PromiseTypeDecl("svc", KIND_SERVICE),
        ]
        cond = Condition.of(CmpLiteral(Attribute("threshold"), "eq", NumConst(3)))
        graph = build_graph(agents, types, [], [Promise("a", "b", use("svc", cond))])
        assert validate_autonomy(graph) == []
        promises = [Promise(name, "b", use("svc", cond)) for name in "ac"]
        findings = validate_autonomy(build_graph(agents, types, [], promises))
        assert [(f.promise.promiser, f.type_name) for f in findings] == [("c", "threshold")]

    def test_named_constants_in_conditions_are_not_policed(self):
        agents = [Agent.make("a"), Agent.make("b")]
        types = [
            PromiseTypeDecl("name", KIND_STR),
            PromiseTypeDecl("svc", KIND_SERVICE),
        ]
        cond = Condition.of(CmpLiteral(Attribute("name"), "eq", NamedConst("owner")))
        promises = [
            Promise("b", "a", give("name")),
            Promise("a", "b", use("svc", cond)),
        ]
        graph = build_graph(agents, types, [], promises)
        assert validate_autonomy(graph) == []


# ---------------------------------------------------------------------------
# Graph indexes against linear scans
# ---------------------------------------------------------------------------

INDEX_AGENTS = ("a", "b", "c", "d")
INDEX_TYPES = [
    PromiseTypeDecl("width", KIND_NUM),
    PromiseTypeDecl("height", KIND_NUM),
    PromiseTypeDecl("ready", KIND_FLAG),
]

index_body_st = st.one_of(
    st.builds(give, st.sampled_from(["width", "height", "ready"])),
    st.builds(use, st.sampled_from(["width", "height", "ready"])),
    st.builds(lambda: give("width", EqConstraint(WIDTH, W))),
    st.builds(lambda: link(W, H, Condition.of(FlagLiteral("ready")))),
)
index_promise_st = st.builds(
    Promise,
    st.sampled_from(INDEX_AGENTS),
    st.sampled_from(INDEX_AGENTS),
    index_body_st,
    st.sampled_from(["", "g1", "g2"]),
)


def assert_indexes_match_scans(graph: PromiseGraph) -> None:
    for agent in INDEX_AGENTS + ("nobody",):
        assert graph.promises_from(agent) == scan_promises_from(graph, agent)
        assert graph.promises_to(agent) == scan_promises_to(graph, agent)
        for other in INDEX_AGENTS + ("nobody",):
            assert graph.given_types(agent, other) == scan_given_types(graph, agent, other)
    expected = scan_channels(graph)
    assert list(graph.channels().items()) == list(expected.items())

    returned = graph.channels()
    key = next(iter(expected), ("a", "b"))
    for mutate in (
        lambda: returned.__setitem__(("nobody", "nobody"), ()),
        lambda: returned.__delitem__(key),
        lambda: returned.clear(),
    ):
        with contextlib.suppress(TypeError, AttributeError, KeyError):
            mutate()
    assert list(graph.channels().items()) == list(expected.items())


@settings(max_examples=150)
@given(st.lists(index_promise_st, max_size=14))
def test_graph_indexes_match_linear_scans(promises):
    agents = [Agent.make(name) for name in INDEX_AGENTS]
    assert_indexes_match_scans(build_graph(agents, INDEX_TYPES, [], promises))
    # Unsorted promises, straight into the dataclass: indexes keep their order.
    direct = PromiseGraph(tuple(agents), tuple(INDEX_TYPES), (), tuple(promises))
    assert_indexes_match_scans(direct)
