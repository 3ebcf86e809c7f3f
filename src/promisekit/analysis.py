"""Static analyses over promise graphs.

Treats recurring promise structure as class structure: canonical bundle
signatures, role discovery, the spanning set of class-like containers,
the extension check, the behavioural is-a verdict and the override
policy, dispatch-pattern validation, channel conflict detection, and
class-hierarchy derivation.
"""
from __future__ import annotations

import enum
import itertools
from collections import Counter, defaultdict
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Sequence, Union

from .constraints import ConditionTable, pairwise_exclusive, TermPartition
from .errors import UnsatisfiableError
from .model import (
    ALWAYS,
    body_key,
    Bundle,
    CmpLiteral,
    Condition,
    ConditionLiteral,
    derive_group,
    EqConstraint,
    FlagLiteral,
    format_body,
    format_term,
    GIVE,
    group_label,
    is_constant,
    LINK_TYPE,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    term_key,
    Term,
    USE,
)
from .value import Value
from .worlds import judge, name_world, World


class Severity(enum.IntEnum):
    """How bad a finding is; comparable, worst last."""

    PATTERN_ERROR = 1
    POLICY_VIOLATION = 2
    RESTRICTED = 3
    INCONSISTENT = 4

    @property
    def label(self) -> str:
        return _SEVERITY_LABELS[self]


_SEVERITY_LABELS = {
    Severity.PATTERN_ERROR: "PatternError",
    Severity.POLICY_VIOLATION: "PolicyViolation",
    Severity.RESTRICTED: "Restricted",
    Severity.INCONSISTENT: "Inconsistent",
}


class Finding(Value):
    """One detected problem, citing the promises (or bodies) involved."""

    __slots__ = ("severity", "code", "message", "promises")

    def __init__(
        self, severity: Severity, code: str, message: str, promises: tuple[str, ...]
    ) -> None:
        if not promises:
            raise ValueError("a finding must cite at least one promise")
        set_severity, set_code, set_message, set_promises = self._setters
        set_severity(self, severity)
        set_code(self, code)
        set_message(self, message)
        set_promises(self, promises)


def finding_sort_key(f: Finding) -> tuple:
    return (-int(f.severity), f.code, f.promises, f.message)


class CheckReport(Value):
    """Outcome of a structural check: fine iff there are no findings."""

    __slots__ = ("findings",)

    def __init__(self, findings: tuple[Finding, ...] = ()) -> None:
        set_findings, = self._setters
        set_findings(self, findings)

    @property
    def ok(self) -> bool:
        return not self.findings


# ---------------------------------------------------------------------------
# Canonical signatures
# ---------------------------------------------------------------------------
#
# A signature must be identical for bundles that differ only by a bijective
# parameter renaming.  Parameters are therefore renamed to numeric indices
# assigned in first-use order of a canonical body ordering; when several
# parameters occupy interchangeable positions, the lexicographically least
# rendering over their permutations is taken (exact up to _PERM_CAP tied
# parameters, a deterministic fallback beyond).

_PERM_CAP = 720

#: A parameter's place in ``term_key`` order; its name gives way to its index.
_PARAM_RANK = term_key(Parameter(""))[0]


def _term_sig(term: Term, assign: dict[str, int]) -> tuple:
    if isinstance(term, Parameter):
        return (_PARAM_RANK, assign.get(term.name, -1))
    return term_key(term)


def _constraint_sig(c: EqConstraint, assign: dict[str, int]) -> tuple:
    a, b = _term_sig(c.lhs, assign), _term_sig(c.rhs, assign)
    return ("eq", b, a) if b < a else ("eq", a, b)


def _literal_sig(lit: ConditionLiteral, assign: dict[str, int]) -> tuple:
    if isinstance(lit, FlagLiteral):
        return ("flag", lit.name, lit.negated)
    a, b = _term_sig(lit.lhs, assign), _term_sig(lit.rhs, assign)
    return ("cmp", lit.op, b, a) if b < a else ("cmp", lit.op, a, b)


def _entry_sig(body: PromiseBody, assign: dict[str, int]) -> tuple:
    constraints = tuple(sorted(_constraint_sig(c, assign) for c in body.constraints))
    entry: tuple = (body.polarity, body.type, constraints)
    if body.condition.literals:
        entry += (tuple(sorted(_literal_sig(l, assign) for l in body.condition.literals)),)
    return entry


def _param_classes(bodies: Sequence[PromiseBody]) -> list[list[str]]:
    """Group parameters by their renaming-invariant occurrence profile."""
    masked: dict[str, int] = {}
    contexts: dict[str, list[tuple]] = {}
    for body in bodies:
        body_ctx = _entry_sig(body, masked)
        items: list[tuple[tuple, tuple[Term, ...]]] = [
            (_constraint_sig(c, masked), c.terms()) for c in body.constraints
        ]
        for lit in body.condition.literals:
            if isinstance(lit, CmpLiteral):
                items.append((_literal_sig(lit, masked), (lit.lhs, lit.rhs)))
        for item_ctx, terms in items:
            for t in terms:
                if isinstance(t, Parameter):
                    contexts.setdefault(t.name, []).append((body_ctx, item_ctx))
    profiles: dict[tuple, list[str]] = {}
    for name, ctx in contexts.items():
        profiles.setdefault(tuple(sorted(ctx)), []).append(name)
    return [sorted(profiles[key]) for key in sorted(profiles)]


def _assignments(classes: list[list[str]]) -> Iterable[dict[str, int]]:
    total = 1
    for cls in classes:
        for n in range(2, len(cls) + 1):
            total *= n
    # Past the cap only the name order, the first assignment of the product.
    if total > _PERM_CAP:
        per_class = [[cls] for cls in classes]
    else:
        per_class = [list(itertools.permutations(cls)) for cls in classes]
    for combo in itertools.product(*per_class):
        assign = {}
        base = 0
        for ordering in combo:
            for name in ordering:
                assign[name] = base
                base += 1
        yield assign


def _canonical(bodies: Sequence[PromiseBody]) -> tuple:
    """The least rendering of ``bodies`` over the parameter assignments;
    without parameters there is one, the empty assignment."""
    best: Union[tuple, None] = None
    for assign in _assignments(_param_classes(bodies)):
        cand = tuple(sorted(_entry_sig(b, assign) for b in bodies))
        if best is None or cand < best:
            best = cand
    return best or ()


def bundle_signature(bundle: Bundle) -> tuple:
    """Canonical multiset of (polarity, type, constraint shape), parameter
    names erased.  Conditions do not participate: an attachment condition
    never changes which class a bundle belongs to."""
    return _canonical(
        [PromiseBody(b.polarity, b.type, b.constraints, ALWAYS) for b in bundle.bodies]
    )


def normalize_body(body: PromiseBody) -> tuple:
    """One body's shape with parameters canonically indexed, condition
    included — the equality used for containment checks."""
    return _canonical([body])[0]


# ---------------------------------------------------------------------------
# Roles and the spanning set
# ---------------------------------------------------------------------------

OUT = "out"
IN = "in"

RoleSignature = tuple  # sorted ((direction, polarity, type), count) pairs


class Role(Value):
    """A maximal set of agents with identical incident promise shapes."""

    __slots__ = ("signature", "label", "members")

    def __init__(self, signature: RoleSignature, label: str, members: tuple[str, ...]) -> None:
        set_signature, set_label, set_members = self._setters
        set_signature(self, signature)
        set_label(self, label)
        set_members(self, members)


def _role_label(signature: RoleSignature) -> str:
    for direction, polarity in ((OUT, GIVE), (OUT, USE), (IN, GIVE), (IN, USE)):
        types = sorted(
            {
                entry[2]
                for entry, _ in signature
                if entry[0] == direction and entry[1] == polarity
            }
        )
        if types:
            if direction == OUT:
                verb = "gives" if polarity == GIVE else "uses"
            else:
                verb = "receives" if polarity == GIVE else "serves"
            return f"{verb}:{'+'.join(types)}"
    return "isolated"


def discover_roles(graph: PromiseGraph) -> list[Role]:
    """Partition every agent by role signature, ordered by signature.

    An agent's role signature is the multiset of (direction, polarity,
    type) over the promises it gives (``out``) and receives (``in``), as
    sorted (entry, count) pairs.  Constraints and conditions are
    deliberately invisible, and so are constraint-only link bodies: an
    extra equation never changes the role.  One pass over the promises
    collects every agent's entries at once, with no per-agent index.
    Agents are grouped by their sorted entries, a tuple of strings that
    hashes in C, and each distinct multiset's signature is counted off its
    runs once, not once per agent."""
    shapes: defaultdict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for p in graph.promises:
        body = p.body
        if body.type != LINK_TYPE:
            shapes[p.promiser].append((OUT, body.polarity, body.type))
            shapes[p.promisee].append((IN, body.polarity, body.type))
    by_entries: dict[tuple[tuple[str, str, str], ...], list[str]] = {}
    for agent in graph.agents:
        by_entries.setdefault(tuple(sorted(shapes.get(agent.name, ()))), []).append(agent.name)
    # Distinct multisets have distinct signatures, so no two groups merge.
    grouped = sorted(
        (tuple((entry, len(list(run))) for entry, run in itertools.groupby(entries)), members)
        for entries, members in by_entries.items()
    )
    return [Role(sig, _role_label(sig), tuple(sorted(members))) for sig, members in grouped]


class SpanningClass(Value):
    """One distinct bundle shape and everything that exhibits it."""

    __slots__ = ("representative", "members", "signature")

    def __init__(self, representative: str, members: tuple[str, ...], signature: tuple) -> None:
        set_representative, set_members, set_signature = self._setters
        set_representative(self, representative)
        set_members(self, members)
        set_signature(self, signature)


def extract_spanning_set(graph: PromiseGraph) -> tuple[SpanningClass, ...]:
    """The distinct bundle signatures present in the graph: declared bundles
    plus, per channel, the collection of directly promised bodies."""
    candidates: list[tuple[str, tuple]] = []
    for bundle in graph.bundles:
        candidates.append((bundle.name, bundle_signature(bundle)))
    for (promiser, promisee), promises in graph.channels().items():
        direct = [
            p.body for p in promises
            if p.group == derive_group(p.body)
        ]
        if direct:
            name = f"{promiser}->{promisee}"
            candidates.append((name, bundle_signature(Bundle(name, tuple(direct)))))
    grouped: dict[tuple, list[str]] = {}
    for name, sig in sorted(candidates):
        grouped.setdefault(sig, []).append(name)
    classes = [
        SpanningClass(members[0], tuple(members), sig)
        for sig, members in grouped.items()
    ]
    return tuple(sorted(classes, key=lambda c: c.representative))


# ---------------------------------------------------------------------------
# Containment-style checks
# ---------------------------------------------------------------------------

def check_extension(child: Bundle, parent: Bundle) -> bool:
    """Does ``child`` contain every body of ``parent``?  Bodies are compared
    with parameters canonically renamed, so the copy may use fresh names."""
    child_bodies = Counter(normalize_body(b) for b in child.bodies)
    parent_bodies = Counter(normalize_body(b) for b in parent.bodies)
    return not parent_bodies - child_bodies


# ---------------------------------------------------------------------------
# Against a base: the is-a verdict and the override policy
# ---------------------------------------------------------------------------

IS_A = "is-a"
RESTRICTED = "restricted"
INCONSISTENT = "inconsistent"


class IsAVerdict(Value):
    """Can the child's promises ride along with the parent's unharmed?"""

    __slots__ = ("outcome", "details", "involved")

    def __init__(
        self, outcome: str, details: tuple[str, ...] = (), involved: tuple[str, ...] = ()
    ) -> None:
        set_outcome, set_details, set_involved = self._setters
        set_outcome(self, outcome)  # IS_A, RESTRICTED, or INCONSISTENT
        set_details(self, details)
        set_involved(self, involved)

    @property
    def is_a(self) -> bool:
        return self.outcome == IS_A


def _clash_detail(clashing: Sequence[tuple[Term, ...]]) -> str:
    """Name a clash; ``clashing_classes`` lists a class of two constants first."""
    consts = [t for t in clashing[0] if is_constant(t)]
    if len(consts) < 2:
        return "a required disequality is violated"
    return f"{format_term(consts[0])} and {format_term(consts[1])} are forced equal"


def _against_base(
    base: Sequence[tuple[str, PromiseBody, str]],
    other: Sequence[tuple[str, PromiseBody, str]],
    names: tuple[str, str],
) -> Iterator[tuple[World, list, TermPartition, list, tuple[tuple[Term, Term], ...]]]:
    """The restriction engine of is-a and the override policy: promise the
    base's entries, each (reference, body, scope) as ``judge`` takes them,
    and the other's at once.  Per world, in ``judge`` order, yield the
    world, the entries in force tagged ((is_base, reference), scoped
    constraints), their joint closure, its clashing classes, and, when none
    clashes, the pairs of base terms that the joint closure merges and the
    base's entries in force alone do not.  A parameter with a non-empty
    scope belongs to its own side and is never a base term.

    A side that clashes by itself has no verdict against the other: at the
    first world where the two clash, each side is judged alone, the base
    first, on the same ``ConditionTable``, and UnsatisfiableError names the
    first of ``names`` (base, other) whose side clashes.  This is exact: a
    world W where one side clashes extends to a joint world whose share of
    that side's conditions is W, as W is maximal, so the same entries of
    that side are in force there, under a closure and disequalities that
    contain W's.  A joint walk with no clash thus proves both sides
    satisfiable alone, and after one clash no side need be judged again."""
    table = ConditionTable()
    entries = [((True, r), b, s) for r, b, s in base]
    entries += [((False, r), b, s) for r, b, s in other]
    judged_alone = False
    for world, in_force, joint, clashing in judge(entries, table):
        pairs = ()
        if not clashing:
            cons = [c for (is_base, _), k in in_force if is_base for c in k]
            terms = {
                t for c in cons for t in c.terms() if not (isinstance(t, Parameter) and t.scope)
            }
            pairs = joint.new_pairs_over(world.closure(cons), terms)
        elif not judged_alone:
            judged_alone = True
            for name, own in zip(names, (base, other)):
                if any(alone for _, _, _, alone in judge(own, table)):
                    raise UnsatisfiableError(f"bundle {name} is unsatisfiable on its own")
        yield world, in_force, joint, clashing, pairs


def _refs_touching(
    in_force: Sequence[tuple[tuple[bool, str], Collection[EqConstraint]]],
    classes: Sequence[tuple[Term, ...]],
) -> tuple[str, ...]:
    """The references of the entries in force whose terms meet ``classes``.
    Over all the entries in force it is never empty: a world's premises hold
    together, so a clashing class was joined by a body constraint, whose
    terms lie in it; and a restricted pair's class holds base terms, each
    from a base entry in force."""
    touching = set()
    for (_, ref), scoped in in_force:
        terms = {t for c in scoped for t in c.terms()}
        if any(not terms.isdisjoint(cls) for cls in classes):
            touching.add(ref)
    return tuple(sorted(touching))


def check_is_a(child: Bundle, parent: Bundle) -> IsAVerdict:
    """Promise both bundles at once and see what breaks.

    Inconsistent: the union forces two distinct constants together.
    Restricted: the union forces an equality among the parent's own
    attributes and constants that the parent alone does not entail.
    Otherwise the child can genuinely stand in for the parent.

    The two are walked together once.  A bundle that is unsatisfiable on
    its own raises UnsatisfiableError (see ``_against_base``).
    """
    sides = [
        [(f"{side} {b.name}: {format_body(body)}", body, side) for body in b.bodies]
        for side, b in (("parent", parent), ("child", child))
    ]
    merged: set[str] = set()
    involved: set[str] = set()
    for world, in_force, joint, clashing, pairs in _against_base(
        *sides, (parent.name, child.name)
    ):
        if clashing:
            detail = _clash_detail(clashing) + world.when
            return IsAVerdict(INCONSISTENT, (detail,), _refs_touching(in_force, clashing))
        for a, b in pairs:
            merged.add(f"{format_term(a)} ~ {format_term(b)}{world.when}")
            involved.update(_refs_touching(in_force, [joint.class_of(a)]))
    outcome = RESTRICTED if merged else IS_A
    return IsAVerdict(outcome, tuple(sorted(merged)), tuple(sorted(involved)))


def _bundle_refs(bundle: Bundle) -> tuple[str, ...]:
    """Cite each body of an override finding's child, which has one: with no
    child body the joint closure is the base's own, and its clash raises."""
    return tuple(f"bundle {bundle.name}: {format_body(b)}" for b in bundle.sorted_bodies())


def check_override_policy(base: Bundle, child: Bundle) -> list[Finding]:
    """The base bundle's bodies are not to be overridden: in every world of
    the two bundles' conditions, conjoining the child's bodies in force must
    neither contradict nor narrow a base body in force.  Parameters are a
    shared namespace here — the child is editing the base's own variables.
    A bundle that is unsatisfiable on its own raises UnsatisfiableError, as
    in ``check_is_a``."""
    findings: list[Finding] = []
    for world, in_force, _, clashing, pairs in _against_base(
        [(format_body(b), b, "") for b in base.sorted_bodies()],
        [(format_body(b), b, "") for b in child.bodies],
        (base.name, child.name),
    ):
        for entry in in_force:
            (is_base, text), _ = entry
            if not is_base:
                continue
            touching = [
                f"{format_term(a)} ~ {format_term(b)}"
                for a, b in pairs if _refs_touching([entry], [(a, b)])
            ]
            if clashing and _refs_touching([entry], clashing):
                effect = f"contradicted by {child.name}{world.when}"
            elif touching:
                effect = f"narrowed by {child.name}{world.when}: {', '.join(touching)}"
            else:
                continue
            findings.append(
                Finding(
                    Severity.POLICY_VIOLATION,
                    "override-contradiction" if clashing else "override-restriction",
                    f"base body '{text}' of {base.name} is {effect}",
                    _bundle_refs(child) + (f"bundle {base.name}: {text}",),
                )
            )
    return sorted(findings, key=finding_sort_key)


# ---------------------------------------------------------------------------
# Dispatch pattern
# ---------------------------------------------------------------------------

def _mentions_flag(cond: Condition, flag: str) -> bool:
    return any(
        isinstance(lit, FlagLiteral) and lit.name == flag for lit in cond.literals
    )


def check_dispatch_pattern(
    graph: PromiseGraph, sender: str, receiver: str, discriminator: str
) -> CheckReport:
    """A behaviour switch: the receiver reports a discriminating flag, the
    sender promises to heed it, and the sender's flag-conditioned offerings
    never apply two at once."""
    findings: list[Finding] = []

    gives_flag = any(
        p.body.polarity == GIVE and p.body.type == discriminator
        for p in graph.channels().get((receiver, sender), ())
    )
    if not gives_flag:
        findings.append(
            Finding(
                Severity.PATTERN_ERROR,
                "dispatch-missing-give",
                f"{receiver} never gives '{discriminator}' to {sender}, so "
                f"{sender} cannot condition on it",
                (f"{receiver} -> {sender}: +{discriminator}",),
            )
        )

    outgoing = graph.channels().get((sender, receiver), ())
    uses_flag = any(
        p.body.polarity == USE and p.body.type == discriminator for p in outgoing
    )
    if not uses_flag:
        findings.append(
            Finding(
                Severity.PATTERN_ERROR,
                "dispatch-missing-use",
                f"{sender} never promises {receiver} to heed '{discriminator}'",
                (f"{sender} -> {receiver}: U({discriminator})",),
            )
        )

    branches: dict[tuple[str, Condition], list[Promise]] = {}
    for p in outgoing:
        if _mentions_flag(p.body.condition, discriminator):
            branches.setdefault((p.group, p.body.condition), []).append(p)
    keys = sorted(branches, key=lambda k: (k[0], k[1].text))
    for i, j in pairwise_exclusive([c for _, c in keys]):
        cited = tuple(
            sorted({p.formatted() for key in (keys[i], keys[j]) for p in branches[key]})
        )
        findings.append(
            Finding(
                Severity.PATTERN_ERROR,
                "dispatch-overlap",
                f"branches on '{discriminator}' overlap: "
                f"({keys[i][1].text}) and ({keys[j][1].text}) "
                f"hold together{name_world((keys[i][1], keys[j][1]))}",
                cited,
            )
        )
    return CheckReport(tuple(sorted(findings, key=finding_sort_key)))


# ---------------------------------------------------------------------------
# Conflict detection
# ---------------------------------------------------------------------------

def _channel_verdicts(
    shape: tuple[tuple[PromiseBody, str], ...], table: ConditionTable
) -> list[tuple[Severity, str, str, list[int]]]:
    """The findings of a channel of ``shape``, its (body, group) pairs in
    channel order, before the channel names them: each is (severity, code,
    message after the channel, indices of the promises cited)."""
    found: list = []
    by_type: dict[tuple[str, str], list[int]] = {}
    for i, (body, _) in enumerate(shape):
        if body.type != LINK_TYPE:
            by_type.setdefault((body.polarity, body.type), []).append(i)
    for same_type in by_type.values():
        conditions = [shape[i][0].condition for i in same_type]
        for i, j in pairwise_exclusive(conditions, table):
            if conditions[i] != conditions[j]:
                a, b = same_type[i], same_type[j]
                found.append((
                    Severity.POLICY_VIOLATION, "channel-overlap",
                    f"'{format_body(shape[a][0])}' and '{format_body(shape[b][0])}' "
                    f"can both apply{name_world((conditions[i], conditions[j]))}", [a, b],
                ))

    # World-by-world joint satisfiability and independence.  With no
    # constraints on the channel there is nothing to judge: a world's
    # conditions hold together by construction, and their parameters keep
    # scope "" (see Parameter), so no world is inconsistent or restricted.
    if not any(body.constraints for body, _ in shape):
        return found
    entries = [(i, body, group) for i, (body, group) in enumerate(shape)]
    for world, in_force, part, clashing in judge(entries, table):
        if clashing:
            # The world's conditions hold together, so the clash needs the
            # constraints of some promise in force.
            found.append((
                Severity.INCONSISTENT, "channel-inconsistent",
                f"promises cannot all hold{world.when}: {_clash_detail(clashing)}",
                [i for i, scoped in in_force if scoped],
            ))
            continue
        for cls in part.classes:
            by_group: dict[str, list[str]] = {}
            for t in cls:  # a class is in term_key order
                if isinstance(t, Parameter) and t.scope:
                    by_group.setdefault(t.scope, []).append(format_term(t))
            if len(by_group) > 1:
                named = " = ".join(
                    f"{group_label(g)} {{{', '.join(by_group[g])}}}" for g in sorted(by_group)
                )
                found.append((
                    Severity.RESTRICTED, "channel-restricted",
                    f"independent declarations are forced to share one value{world.when}: "
                    f"{named}",
                    [i for i, _ in in_force if shape[i][1] in by_group],
                ))
    return found


def detect_conflicts(graph: PromiseGraph) -> list[Finding]:
    """Per channel, conjoin everything that can be in force at once.

    Inconsistent: some compatible combination of promises cannot hold.
    Restricted: parameters belonging to independently declared promises are
    forced together — one declaration quietly tightens another.
    Policy violation: two promises of the same polarity and type whose
    conditions can overlap, leaving it ambiguous which one applies.

    Cost: a channel's shape is its (body, group) pairs in channel order, and
    ``_channel_verdicts`` judges each distinct shape once per call, on one
    ``ConditionTable``.  A group does not repeat its channel, so channels
    that attach the same bundles or declare the same bodies share a shape.
    The memo is keyed on each body's identity and each group, which hash and
    compare in C, and the shape is built only on a miss.  That is exact: the
    graph keeps every body alive through the call, so no identity is
    reused; ``build_graph`` makes equal bodies one object, and where a graph
    built otherwise holds two equal bodies, a miss only judges an equal
    shape again.  The shape's verdicts are named once too: each keeps its
    severity, code, message text and the sorted distinct
    ``format_body`` texts of the bodies it cites, and equal verdicts of the
    shape are kept once.  A channel only puts its head ``"{promiser} ->
    {promisee}: "`` before the message text and before each body text: no
    promise is formatted and no citation is sorted per channel.

    This names each finding as formatting its cited promises would, since a
    cited promise prints as the head followed by ``format_body`` of its
    body.  Strings that begin with one prefix are equal, and ordered, as the
    rest of them are, so the prefixed body texts stay distinct and sorted,
    and two verdicts of a shape make equal findings on a channel exactly
    when they are equal in the shape.  Findings of two channels can be equal
    only when the channels print the same head.  If one finding's message
    and citations equal another's, one head is a prefix of the other; were
    it a proper prefix, the rest of the longer head would begin both the
    shorter-headed finding's message text (``'``, ``promises`` or
    ``independent``) and one of its body texts (``+`` or ``U(``), and no
    non-empty text begins both.  Two channels print the same head only when
    an agent name holds ``->``, as ``"a -> b" -> "c"`` and ``"a" -> "b ->
    c"`` do; then equal findings are kept once, as one finding.
    """
    findings: list[Finding] = []
    table = ConditionTable()
    shape_memo: dict[tuple, list] = {}
    heads: set[str] = set()
    named_channels = 0
    body_group = attrgetter("body", "group")
    for (promiser, promisee), promises in graph.channels().items():
        key = tuple([(id(p.body), p.group) for p in promises])
        named = shape_memo.get(key)
        if named is None:
            shape = tuple(map(body_group, promises))
            named = shape_memo[key] = list(dict.fromkeys(
                (severity, code, text, tuple(sorted({format_body(shape[i][0]) for i in cited})))
                for severity, code, text, cited in _channel_verdicts(shape, table)
            ))
        if not named:
            continue
        head = f"{promiser} -> {promisee}: "
        heads.add(head)
        named_channels += 1
        for severity, code, text, bodies in named:
            findings.append(
                Finding(severity, code, head + text, tuple([head + b for b in bodies]))
            )
    if len(heads) < named_channels:  # two channels printed one head
        findings = list(dict.fromkeys(findings))
    findings.sort(key=finding_sort_key)
    return findings


# ---------------------------------------------------------------------------
# Class-hierarchy derivation
# ---------------------------------------------------------------------------

class ClassNode(Value):
    """One class-like unit: a guard condition ('' for the base) and the
    bodies promised under it."""

    __slots__ = ("condition", "bodies")

    def __init__(self, condition: str, bodies: tuple[str, ...]) -> None:
        set_condition, set_bodies = self._setters
        set_condition(self, condition)
        set_bodies(self, bodies)


class RoleClasses(Value):
    __slots__ = ("role", "base", "subtypes")

    def __init__(self, role: Role, base: ClassNode, subtypes: tuple[ClassNode, ...]) -> None:
        set_role, set_base, set_subtypes = self._setters
        set_role(self, role)
        set_base(self, base)
        set_subtypes(self, subtypes)


class ClassHierarchy(Value):
    __slots__ = ("classes", "findings")

    def __init__(
        self, classes: tuple[RoleClasses, ...], findings: tuple[Finding, ...] = ()
    ) -> None:
        set_classes, set_findings = self._setters
        set_classes(self, classes)
        set_findings(self, findings)


def derive_class_hierarchy(graph: PromiseGraph) -> ClassHierarchy:
    """Read class structure off the graph, one class per role.

    Unconditional bodies form the base class.  Conditional bodies group by
    condition; groups whose conditions are pairwise exclusive become subtype
    nodes, anything overlapping stays in the base and is reported.  The
    roles share one ``ConditionTable``."""
    findings: list[Finding] = []
    entries: list[RoleClasses] = []
    table = ConditionTable()
    for role in discover_roles(graph):
        rep = role.members[0]
        bodies: list[PromiseBody] = []
        citations: dict[PromiseBody, str] = {}
        for p in graph.promises_from(rep):
            if p.body not in citations:
                bodies.append(p.body)
                citations[p.body] = p.formatted()
        bodies.sort(key=body_key)

        base = [b for b in bodies if b.condition.is_empty]
        groups: dict[Condition, list[PromiseBody]] = {}
        cited: dict[Condition, list[str]] = {}
        for b in bodies:
            if not b.condition.is_empty:
                groups.setdefault(b.condition, []).append(b)
                cited.setdefault(b.condition, []).append(citations[b])

        conditions = sorted(groups, key=lambda c: c.text)
        overlapping: set[Condition] = set()
        for i, j in pairwise_exclusive(conditions, table):
            overlapping.update((conditions[i], conditions[j]))
            findings.append(
                Finding(
                    Severity.PATTERN_ERROR,
                    "hierarchy-overlap",
                    f"role '{role.label}': conditions "
                    f"({conditions[i].text}) and "
                    f"({conditions[j].text}) can hold together"
                    f"{name_world((conditions[i], conditions[j]))}; their bodies "
                    f"stay in the base class",
                    tuple(sorted(cited[conditions[i]] + cited[conditions[j]])),
                )
            )

        base_bodies = [format_body(b) for b in base]
        for cond in conditions:
            if cond in overlapping:
                base_bodies.extend(format_body(b) for b in groups[cond])
        subtypes = tuple(
            ClassNode(
                cond.text,
                tuple(
                    format_body(
                        PromiseBody(b.polarity, b.type, b.constraints, ALWAYS)
                    )
                    for b in groups[cond]
                ),
            )
            for cond in conditions
            if cond not in overlapping
        )
        entries.append(
            RoleClasses(
                role,
                ClassNode("", tuple(sorted(base_bodies))),
                subtypes,
            )
        )
    return ClassHierarchy(
        tuple(entries), tuple(sorted(findings, key=finding_sort_key))
    )
