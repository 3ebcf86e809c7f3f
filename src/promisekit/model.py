"""Immutable domain model for promise graphs.

Agents promise things to one another.  A promise body couples a polarity
(``give`` = offer behaviour, ``use`` = accept behaviour) with a promise type
and, for valued types, equality constraints over attributes, parameters, and
constants.  Bodies may be conditional on a conjunction of literals; groups of
bodies can be declared once as a named bundle and attached to any agent pair.

Everything here is an immutable ``Value``: graphs compare structurally, and
construction sorts every collection so that identical declaration sets yield
identical graphs regardless of declaration order.

A ``PromiseGraph`` indexes its promises lazily, once per graph: per-channel
tuples, per-agent outgoing and incoming tuples, and the set of types each
giver promises each receiver.  ``channels``, ``promises_from``,
``promises_to`` and ``given_types`` are lookups into those indexes rather
than scans of ``promises``; ``channels`` hands out a read-only view.
"""
from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Literal, Mapping, Union

from .errors import (
    BundleCycleError,
    DanglingReferenceError,
    DuplicateNameError,
    InvalidBodyError,
)
from .value import Value

GIVE = "give"
USE = "use"

#: Pseudo-type carried by constraint-only bodies such as ``give $w = $h;``.
#: "=" cannot collide with a declared type because it is not an identifier.
LINK_TYPE = "="


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Attribute(Value):
    """A promise type used as a value carrier, e.g. ``width``."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        set_name, set_hash = self._setters
        set_name(self, name)
        set_hash(self, hash(name))


class Parameter(Value):
    """A free value placeholder, written ``$w``.  ``scope`` keeps one
    declaration's parameters apart from another's: the group of the promise
    that makes it in ``detect_conflicts``, the side in ``check_is_a``, else
    ""."""

    __slots__ = ("name", "scope", "_hash")

    def __init__(self, name: str, scope: str = "") -> None:
        set_name, set_scope, set_hash = self._setters
        set_name(self, name)
        set_scope(self, scope)
        set_hash(self, hash((name, scope)))


class NumConst(Value):
    __slots__ = ("value", "_hash")

    def __init__(self, value: Union[int, float]) -> None:
        set_value, set_hash = self._setters
        set_value(self, value)
        set_hash(self, hash(value))


class StrConst(Value):
    __slots__ = ("value", "_hash")

    def __init__(self, value: str) -> None:
        set_value, set_hash = self._setters
        set_value(self, value)
        set_hash(self, hash(value))


class NamedConst(Value):
    """A bare identifier that is not a declared type.

    It stays a distinct symbolic constant, never looked up as an agent's
    private attribute; equating it with another constant is no clash.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        set_name, set_hash = self._setters
        set_name(self, name)
        set_hash(self, hash(name))


Term = Union[Attribute, Parameter, NumConst, StrConst, NamedConst]

_TERM_RANK = {NumConst: 0, StrConst: 1, NamedConst: 2, Attribute: 3, Parameter: 4}


def term_key(term: Term) -> tuple:
    """Total order over terms: constants, named, attributes, then parameters."""
    rank = _TERM_RANK[type(term)]
    if isinstance(term, NumConst):
        # int and float compare exactly, and no int is too large to compare.
        return (rank, term.value, "")
    if isinstance(term, StrConst):
        return (rank, 0.0, term.value)
    if isinstance(term, Parameter):
        return (rank, 0.0, term.scope, term.name)
    return (rank, 0.0, term.name)


def format_number(value: Union[int, float]) -> str:
    """Positional notation that reads back as the same number.

    An integral float prints as an integer.  Any other float prints with the
    shortest digits that round-trip, those of ``repr``, with an exponent
    written out as leading zeros: a float of 1e16 or more is integral, so
    only negative exponents reach that step.
    """
    if not isinstance(value, float):
        return str(value)
    if value.is_integer():
        return str(int(value))
    text = repr(value)
    mantissa, e, exponent = text.partition("e")
    if not e:
        return text
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return f"{sign}0.{'0' * (-int(exponent) - 1)}{digits}"


def escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


def format_term(term: Term) -> str:
    if isinstance(term, Attribute):
        return term.name
    if isinstance(term, Parameter):
        return f"${term.name}"
    if isinstance(term, NumConst):
        return format_number(term.value)
    if isinstance(term, StrConst):
        return escape_string(term.value)
    return term.name


def is_constant(term: Term) -> bool:
    return isinstance(term, (NumConst, StrConst))


# ---------------------------------------------------------------------------
# Constraints and conditions
# ---------------------------------------------------------------------------

class EqConstraint(Value):
    """An equality between two terms; stored order-normalized so the set
    {a=b} equals {b=a}."""

    __slots__ = ("lhs", "rhs", "_hash")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        if term_key(lhs) > term_key(rhs):
            lhs, rhs = rhs, lhs
        set_lhs, set_rhs, set_hash = self._setters
        set_lhs(self, lhs)
        set_rhs(self, rhs)
        set_hash(self, hash((lhs, rhs)))

    def terms(self) -> tuple[Term, Term]:
        return (self.lhs, self.rhs)


def format_constraint(c: EqConstraint) -> str:
    # Prefer attribute/parameter on the left for display, constants on the right.
    lhs, rhs = c.lhs, c.rhs
    if is_constant(lhs) or (isinstance(lhs, NamedConst) and not is_constant(rhs)):
        lhs, rhs = rhs, lhs
    return f"{format_term(lhs)}={format_term(rhs)}"


class CmpLiteral(Value):
    """``lhs == rhs`` or ``lhs != rhs`` inside a condition; sides stored in
    term order, as in ``EqConstraint``."""

    __slots__ = ("lhs", "op", "rhs", "_hash")

    def __init__(self, lhs: Term, op: Literal["eq", "neq"], rhs: Term) -> None:
        if term_key(lhs) > term_key(rhs):
            lhs, rhs = rhs, lhs
        set_lhs, set_op, set_rhs, set_hash = self._setters
        set_lhs(self, lhs)
        set_op(self, op)
        set_rhs(self, rhs)
        set_hash(self, hash((lhs, op, rhs)))


class FlagLiteral(Value):
    """A boolean flag mention, possibly negated (``not employee``)."""

    __slots__ = ("name", "negated", "_hash")

    def __init__(self, name: str, negated: bool = False) -> None:
        set_name, set_negated, set_hash = self._setters
        set_name(self, name)
        set_negated(self, negated)
        set_hash(self, hash((name, negated)))


ConditionLiteral = Union[CmpLiteral, FlagLiteral]


def _literal_sort_key(lit: ConditionLiteral) -> tuple:
    if isinstance(lit, CmpLiteral):
        return (0, term_key(lit.lhs), term_key(lit.rhs), lit.op)
    return (1, lit.name, lit.negated)


def format_literal(lit: ConditionLiteral) -> str:
    if isinstance(lit, CmpLiteral):
        op = "==" if lit.op == "eq" else "!="
        lhs, rhs = lit.lhs, lit.rhs
        # Display with the attribute first when one side is an attribute.
        if not isinstance(lhs, Attribute) and isinstance(rhs, Attribute):
            lhs, rhs = rhs, lhs
        return f"{format_term(lhs)} {op} {format_term(rhs)}"
    return f"not {lit.name}" if lit.negated else lit.name


class Condition(Value):
    """A conjunction of literals; the empty condition is always true."""

    __slots__ = ("literals", "_hash", "__dict__")

    def __init__(self, literals: frozenset[ConditionLiteral] = frozenset()) -> None:
        set_literals, set_hash = self._setters
        set_literals(self, literals)
        set_hash(self, hash(literals))

    @staticmethod
    def of(*literals: ConditionLiteral) -> "Condition":
        return Condition(frozenset(literals))

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def sorted_literals(self) -> tuple[ConditionLiteral, ...]:
        return tuple(sorted(self.literals, key=_literal_sort_key))

    def conjoin(self, other: "Condition") -> "Condition":
        return Condition(self.literals | other.literals)

    @cached_property
    def text(self) -> str:
        """The printed condition, made once per condition object:
        ``name == owner and not employee``, or ``""`` when empty."""
        return format_condition(self)


ALWAYS = Condition()


def format_condition(cond: Condition) -> str:
    if cond.is_empty:
        return ""
    return " and ".join(format_literal(l) for l in cond.sorted_literals())


# ---------------------------------------------------------------------------
# Bodies, promises, bundles
# ---------------------------------------------------------------------------

class PromiseBody(Value):
    """Polarity + type + constraints + condition.

    Use-bodies accept the counterpart's behaviour and carry no constraints of
    their own; constructing one with constraints raises.
    """

    __slots__ = ("polarity", "type", "constraints", "condition", "_hash", "__dict__")

    def __init__(
        self,
        polarity: Literal["give", "use"],
        type: str,
        constraints: frozenset[EqConstraint] = frozenset(),
        condition: Condition = ALWAYS,
    ) -> None:
        if polarity not in (GIVE, USE):
            raise InvalidBodyError(f"unknown polarity: {polarity!r}")
        if polarity == USE and constraints:
            raise InvalidBodyError(f"use body for {type!r} must not carry constraints")
        set_polarity, set_type, set_constraints, set_condition, set_hash = self._setters
        set_polarity(self, polarity)
        set_type(self, type)
        set_constraints(self, constraints)
        set_condition(self, condition)
        set_hash(self, hash((polarity, type, constraints, condition)))

    @property
    def is_link(self) -> bool:
        return self.type == LINK_TYPE

    def sorted_constraints(self) -> tuple[EqConstraint, ...]:
        return tuple(
            sorted(self.constraints, key=lambda c: (term_key(c.lhs), term_key(c.rhs)))
        )

    @cached_property
    def text(self) -> str:
        """The printed body, made once per body object: ``+width=$w``,
        ``U(width)``, ``+$w=$h if subtype``."""
        if self.is_link:
            core = format_constraint(next(iter(self.constraints)))
            text = f"+{core}"
        else:
            parts = [format_constraint(c) for c in self.sorted_constraints()]
            core = self.type if not parts else ",".join(parts)
            text = f"+{core}" if self.polarity == GIVE else f"U({core})"
        if not self.condition.is_empty:
            text += f" if {self.condition.text}"
        return text


def give(type_: str, *constraints: EqConstraint, condition: Condition = ALWAYS) -> PromiseBody:
    return PromiseBody(GIVE, type_, frozenset(constraints), condition)


def use(type_: str, condition: Condition = ALWAYS) -> PromiseBody:
    return PromiseBody(USE, type_, frozenset(), condition)


def link(lhs: Term, rhs: Term, condition: Condition = ALWAYS) -> PromiseBody:
    """A constraint-only body, e.g. the square's ``give $w = $h;``."""
    return PromiseBody(GIVE, LINK_TYPE, frozenset({EqConstraint(lhs, rhs)}), condition)


def format_body(body: PromiseBody) -> str:
    return body.text


def body_key(body: PromiseBody) -> tuple:
    return (
        body.type,
        body.polarity,
        tuple((term_key(c.lhs), term_key(c.rhs)) for c in body.sorted_constraints()),
        tuple(_literal_sort_key(l) for l in body.condition.sorted_literals()),
    )


class Promise(Value):
    """A directed edge: ``promiser`` makes ``body`` toward ``promisee``.

    ``group`` is the parameter scope on the promise's channel: ``bundle:NAME``
    for one bundle attachment, ``body:TEXT`` for one direct declaration.  It
    is derived from content so graphs stay order-insensitive, and leaves the
    channel to ``promiser`` and ``promisee``.
    """

    __slots__ = ("promiser", "promisee", "body", "group")

    def __init__(self, promiser: str, promisee: str, body: PromiseBody, group: str = "") -> None:
        set_promiser, set_promisee, set_body, set_group = self._setters
        set_promiser(self, promiser)
        set_promisee(self, promisee)
        set_body(self, body)
        set_group(self, group)

    def formatted(self) -> str:
        return f"{self.promiser} -> {self.promisee}: {format_body(self.body)}"


class Bundle(Value):
    """A named, reusable collection of bodies, optionally extending another."""

    __slots__ = ("name", "bodies", "parent")

    def __init__(
        self, name: str, bodies: tuple[PromiseBody, ...], parent: Union[str, None] = None
    ) -> None:
        set_name, set_bodies, set_parent = self._setters
        set_name(self, name)
        set_bodies(self, bodies)
        set_parent(self, parent)

    def sorted_bodies(self) -> tuple[PromiseBody, ...]:
        return tuple(sorted(self.bodies, key=body_key))


class Agent(Value):
    """An autonomous party.  ``private_attrs`` bind names to constant terms
    visible only to analyses evaluating this agent's own conditions."""

    __slots__ = ("name", "private_attrs")

    def __init__(self, name: str, private_attrs: tuple[tuple[str, Term], ...] = ()) -> None:
        set_name, set_private_attrs = self._setters
        set_name(self, name)
        set_private_attrs(self, private_attrs)

    @staticmethod
    def make(name: str, attrs: Union[Mapping[str, Term], None] = None) -> "Agent":
        items = tuple(sorted((attrs or {}).items()))
        return Agent(name, items)


KIND_NUM = "num"
KIND_STR = "str"
KIND_FLAG = "flag"
KIND_SERVICE = "service"

VALUED_KINDS = (KIND_NUM, KIND_STR)


class PromiseTypeDecl(Value):
    """A registered promise type.  A dotted ``name`` such as ``bank.balance``
    is one name: ``.`` only groups types for the reader."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: Literal["num", "str", "flag", "service"]) -> None:
        set_name, set_kind = self._setters
        set_name(self, name)
        set_kind(self, kind)


class AutonomyFinding(Value):
    """A condition literal that leans on something never promised to the agent."""

    __slots__ = ("promise", "type_name", "message")

    def __init__(self, promise: Promise, type_name: str, message: str) -> None:
        set_promise, set_type_name, set_message = self._setters
        set_promise(self, promise)
        set_type_name(self, type_name)
        set_message(self, message)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class PromiseGraph(Value):
    __slots__ = ("agents", "types", "bundles", "promises", "__dict__")

    def __init__(
        self,
        agents: tuple[Agent, ...],
        types: tuple[PromiseTypeDecl, ...],
        bundles: tuple[Bundle, ...],
        promises: tuple[Promise, ...],
    ) -> None:
        set_agents, set_types, set_bundles, set_promises = self._setters
        set_agents(self, agents)
        set_types(self, types)
        set_bundles(self, bundles)
        set_promises(self, promises)

    @cached_property
    def _agent_map(self) -> dict[str, Agent]:
        return {a.name: a for a in self.agents}

    @cached_property
    def _bundle_map(self) -> dict[str, Bundle]:
        return {b.name: b for b in self.bundles}

    def agent(self, name: str) -> Agent:
        return self._agent_map[name]

    def bundle(self, name: str) -> Union[Bundle, None]:
        return self._bundle_map.get(name)

    @cached_property
    def _channels(self) -> dict[tuple[str, str], tuple[Promise, ...]]:
        return dict(sorted(_group_promises(self.promises, _channel_of).items()))

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Promise, ...]]:
        return _group_promises(self.promises, attrgetter("promiser"))

    @cached_property
    def _incoming(self) -> dict[str, tuple[Promise, ...]]:
        return _group_promises(self.promises, attrgetter("promisee"))

    @cached_property
    def _given_types(self) -> dict[tuple[str, str], frozenset[str]]:
        out: dict[tuple[str, str], set[str]] = {}
        for p in self.promises:
            if p.body.polarity == GIVE:
                out.setdefault((p.promiser, p.promisee), set()).add(p.body.type)
        return {k: frozenset(v) for k, v in out.items()}

    def channels(self) -> Mapping[tuple[str, str], tuple[Promise, ...]]:
        """Promises grouped by (promiser, promisee), deterministically ordered."""
        return MappingProxyType(self._channels)

    def promises_from(self, agent: str) -> tuple[Promise, ...]:
        return self._outgoing.get(agent, ())

    def promises_to(self, agent: str) -> tuple[Promise, ...]:
        return self._incoming.get(agent, ())

    def given_types(self, giver: str, receiver: str) -> frozenset[str]:
        """Types that ``giver`` promises (polarity give) toward ``receiver``."""
        return self._given_types.get((giver, receiver), frozenset())


def _channel_of(p: Promise) -> tuple[str, str]:
    return (p.promiser, p.promisee)


def _group_promises(promises: Iterable[Promise], key: Callable) -> dict:
    """Promises by ``key(promise)``, each group in the order given."""
    out: dict = {}
    for p in promises:
        out.setdefault(key(p), []).append(p)
    return {k: tuple(v) for k, v in out.items()}


def _check_type_registry(types: Iterable[PromiseTypeDecl]) -> tuple[PromiseTypeDecl, ...]:
    by_name: dict[str, PromiseTypeDecl] = {}
    for decl in types:
        if "" in decl.name.split("."):
            raise ValueError(f"type name {decl.name!r} has an empty segment")
        if decl.name in by_name:
            raise DuplicateNameError(f"type {decl.name!r} declared twice")
        by_name[decl.name] = decl
    return tuple(sorted(by_name.values(), key=lambda d: d.name))


def flatten_bundles(bundles: Iterable[Bundle]) -> tuple[Bundle, ...]:
    """Resolve ``extends`` chains: each bundle's bodies become its parent's
    bodies (already flattened) followed by its own new ones."""
    by_name: dict[str, Bundle] = {}
    for b in bundles:
        if b.name in by_name:
            raise DuplicateNameError(f"bundle {b.name!r} declared twice")
        by_name[b.name] = b

    flat: dict[str, Bundle] = {}
    for name in by_name:
        # Walk up to a flattened ancestor or a root, then flatten on the way
        # back down: a loop, so that no chain is too deep for the stack.
        trail: dict[str, int] = {}  # bundle -> its step in the walk
        current: Union[str, None] = name
        while current is not None and current not in flat:
            if current in trail:
                raise BundleCycleError((*list(trail)[trail[current]:], current))
            bundle = by_name.get(current)
            if bundle is None:
                raise DanglingReferenceError(f"unknown parent bundle {current!r}")
            trail[current] = len(trail)
            current = bundle.parent
        inherited = flat[current].bodies if current is not None else ()
        for step in reversed(trail):
            bundle = by_name[step]
            inherited = tuple(dict.fromkeys((*inherited, *bundle.bodies)))
            flat[step] = Bundle(step, inherited, bundle.parent)
    return tuple(sorted(flat.values(), key=lambda b: b.name))


def derive_group(body: PromiseBody) -> str:
    """Content-derived scope id for a directly declared promise body."""
    return f"body:{format_body(body)}"


def bundle_group(bundle_name: str) -> str:
    """Scope id shared by all bodies of one bundle attachment."""
    return f"bundle:{bundle_name}"


def group_label(group: str) -> str:
    """How reports name a group: ``bundle NAME`` for a bundle attachment,
    ``promise BODY`` for a direct declaration, and a group of neither form
    by itself."""
    for form, word in (("bundle:", "bundle"), ("body:", "promise")):
        if group.startswith(form):
            return f"{word} {group[len(form):]}"
    return group


def _condition_names(condition: Condition) -> tuple[str, ...]:
    """Type names a condition watches, each once, in sorted-literal order."""
    names: list[str] = []
    for lit in condition.sorted_literals():
        if isinstance(lit, FlagLiteral):
            names.append(lit.name)
        else:
            names.extend(t.name for t in (lit.lhs, lit.rhs) if isinstance(t, Attribute))
    return tuple(dict.fromkeys(names))


def _referenced_types(body: PromiseBody) -> set[str]:
    names = {t.name for c in body.constraints for t in c.terms() if isinstance(t, Attribute)}
    names.update(_condition_names(body.condition))
    return names


def build_graph(
    agents: Iterable[Agent],
    types: Iterable[PromiseTypeDecl],
    bundles: Iterable[Bundle] = (),
    promises: Iterable[Promise] = (),
) -> PromiseGraph:
    """Assemble and validate an immutable promise graph.

    Checks name uniqueness, reference integrity and bundle acyclicity;
    flattens bundle inheritance; deduplicates promises within a group; sorts
    every collection for determinism.
    """
    agent_list = list(agents)
    # Each name maps to the agent's own string object, which every promise
    # then shares instead of its own equal copy.
    agent_names: dict[str, str] = {}
    for a in agent_list:
        if a.name in agent_names:
            raise DuplicateNameError(f"agent {a.name!r} declared twice")
        agent_names[a.name] = a.name

    type_tuple = _check_type_registry(types)
    known_types = {t.name for t in type_tuple}

    flat_bundles = flatten_bundles(bundles)

    def check_body(body: PromiseBody, context: str) -> None:
        if body.type != LINK_TYPE and body.type not in known_types:
            raise DanglingReferenceError(f"{context}: unknown type {body.type!r}")
        for name in _referenced_types(body):
            if name not in known_types:
                raise DanglingReferenceError(
                    f"{context}: unknown type {name!r} referenced"
                )

    for b in flat_bundles:
        for body in b.bodies:
            check_body(body, f"bundle {b.name!r}")

    # Each distinct body once: the first equal object, which every promise
    # carrying it then shares, and its body_key.  A body is entered only after
    # it has passed check_body.
    bodies: dict[PromiseBody, tuple[PromiseBody, tuple]] = {}
    # Keyed by the shared body's id, which stands for its value here.
    deduped: dict[tuple[str, str, str, int], tuple[tuple, Promise]] = {}
    for p in promises:
        promiser = agent_names.get(p.promiser)
        if promiser is None:
            raise DanglingReferenceError(f"unknown promiser {p.promiser!r}")
        promisee = agent_names.get(p.promisee)
        if promisee is None:
            raise DanglingReferenceError(f"unknown promisee {p.promisee!r}")
        entry = bodies.get(p.body)
        if entry is None:
            check_body(p.body, f"promise {promiser} -> {promisee}")
            entry = bodies[p.body] = (p.body, body_key(p.body))
        body, key = entry
        group = p.group or derive_group(body)
        # A promise whose fields are the shared objects already is kept as is.
        if not (p.promiser is promiser and p.promisee is promisee and p.body is body
                and p.group is group):
            p = Promise(promiser, promisee, body, group)
        sort_key = (promiser, promisee, key, group)
        deduped.setdefault((promiser, promisee, group, id(body)), (sort_key, p))
    promise_tuple = tuple(p for _, p in sorted(deduped.values(), key=itemgetter(0)))

    return PromiseGraph(
        agents=tuple(sorted(agent_list, key=lambda a: a.name)),
        types=type_tuple,
        bundles=flat_bundles,
        promises=promise_tuple,
    )


def validate_autonomy(graph: PromiseGraph) -> list[AutonomyFinding]:
    """Conditions may only watch what the promiser can see: types promised to
    it by the promisee, or its own private attributes.  One finding per
    promise and type name it watches but may not see."""
    findings: list[AutonomyFinding] = []
    referenced: dict[Condition, tuple[str, ...]] = {}  # per distinct condition
    private_of: dict[str, set[str]] = {}  # per promiser, once a name is not visible
    for p in graph.promises:
        condition = p.body.condition
        if condition.is_empty:
            continue
        names = referenced.get(condition)
        if names is None:
            names = referenced[condition] = _condition_names(condition)
        visible = graph.given_types(p.promisee, p.promiser)
        for name in names:
            if name in visible:
                continue
            private = private_of.get(p.promiser)
            if private is None:
                attrs = graph.agent(p.promiser).private_attrs
                private = private_of[p.promiser] = {attr for attr, _ in attrs}
            if name in private:
                continue
            findings.append(
                AutonomyFinding(
                    promise=p,
                    type_name=name,
                    message=(
                        f"condition of {p.formatted()} references {name!r}, "
                        f"which {p.promisee} never promises to {p.promiser}"
                    ),
                )
            )
    return findings
