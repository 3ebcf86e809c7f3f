"""Name resolution and graph construction for parsed models.

Turns a syntax tree into an immutable promise graph: checks declarations,
resolves identifiers into typed terms, enforces kind discipline (numbers
don't mix with strings, services and flags take no values, use-bodies take
no constraints), expands bundle attachments, and attaches autonomy warnings.
A diagnostic is placed by offsets that the syntax nodes keep, and its span
is built through ``ModelAst.span`` only when it is reported.
"""
from __future__ import annotations

from typing import Hashable, Union

from ..constraints import UnionFind
from ..errors import BundleCycleError, PromiseModelError
from ..model import (
    Agent,
    ALWAYS,
    Attribute,
    build_graph,
    bundle_group,
    Bundle,
    CmpLiteral,
    Condition,
    ConditionLiteral,
    derive_group,
    EqConstraint,
    FlagLiteral,
    flatten_bundles,
    GIVE,
    KIND_FLAG,
    KIND_NUM,
    KIND_SERVICE,
    KIND_STR,
    LINK_TYPE,
    NamedConst,
    NumConst,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    PromiseTypeDecl,
    StrConst,
    Term,
    term_key,
    USE,
    validate_autonomy,
    VALUED_KINDS,
)
from ..value import Value
from .ast_nodes import (
    AgentDecl,
    BodyNode,
    BundleDecl,
    BundleRef,
    CmpLiteralNode,
    ConditionNode,
    FlagDecl,
    FlagLiteralNode,
    IdentTerm,
    ModelAst,
    NumberTerm,
    ParamTerm,
    PromiseDecl,
    statement_decl,
    StringTerm,
    TermNode,
    TypeDecl,
)
from .diagnostics import (
    Diagnostic,
    diagnostic_sort_key,
    E_RESOLVE_CYCLE,
    E_RESOLVE_DUPLICATE,
    E_RESOLVE_KIND_CONFLICT,
    E_RESOLVE_NOT_A_FLAG,
    E_RESOLVE_UNKNOWN_AGENT,
    E_RESOLVE_UNKNOWN_BUNDLE,
    E_RESOLVE_UNKNOWN_TYPE,
    E_RESOLVE_USE_CONSTRAINT,
    E_RESOLVE_VALUELESS_TYPE,
    ERROR,
    has_errors,
    W_AUTONOMY,
    WARNING,
)

_UNKNOWN = "unknown"  # kind placeholder for named constants


class _Scope:
    """The parameters of one scope: a bundle, or one promise.  Parameters
    related to each other form one class, and a class has at most one kind."""

    def __init__(self) -> None:
        self.classes = UnionFind()
        self.kinds: dict[Hashable, str] = {}  # class root -> kind

    def kind(self, name: str) -> str:
        self.classes.add(name)
        return self.kinds.get(self.classes.find(name), _UNKNOWN)

    def join(self, terms: tuple[Term, Term], kind: str) -> None:
        """Put the parameters among ``terms`` in one class of ``kind``."""
        names = [t.name for t in terms if isinstance(t, Parameter)]
        if len(names) == 2:
            self.classes.union(*names)
        if names and kind != _UNKNOWN:
            self.kinds[self.classes.find(names[0])] = kind


class ResolveResult(Value):
    __slots__ = ("graph", "diagnostics")

    def __init__(self, graph: Union[PromiseGraph, None], diagnostics: list[Diagnostic]) -> None:
        set_graph, set_diagnostics = self._setters
        set_graph(self, graph)
        set_diagnostics(self, diagnostics)

    @property
    def ok(self) -> bool:
        return self.graph is not None


class _Resolver:
    def __init__(self, ast: ModelAst) -> None:
        self.ast = ast
        self.diagnostics: list[Diagnostic] = []
        self.agents: dict[str, Agent] = {}
        self.types: dict[str, PromiseTypeDecl] = {}
        self.bundle_decls: dict[str, BundleDecl] = {}
        self.bundles: dict[str, Bundle] = {}
        self.flat_bundles: dict[str, Bundle] = {}
        self.promises: list[Promise] = []
        # The start and end offsets of each promise's declaration, as ints
        # rather than pairs: a pair kept per promise is one more object for
        # the cyclic collector to track.
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.named_terms = 0  # named constants resolved so far
        self.named_bundles: set[str] = set()  # bundles whose bodies hold one

    def error(self, code: str, message: str, start: int, end: int) -> None:
        """Report at ``[start, end)``; ``(0, 0)``, the start of the file, is
        line 1, column 1 of any text."""
        self.diagnostics.append(Diagnostic(ERROR, code, message, self.ast.span(start, end)))

    # -- declaration collection --------------------------------------------

    def declare(
        self, table: dict, name: str, value: object, start: int, end: int, message: str
    ) -> None:
        """Enter ``name``, read at ``[start, end)``, in ``table``, or report it
        as declared already; ``message`` takes the name at ``{}``."""
        if name in table:
            self.error(E_RESOLVE_DUPLICATE, message.format(name), start, end)
        else:
            table[name] = value

    def collect_agents(self) -> None:
        for decl in self.ast.parts:
            if isinstance(decl, AgentDecl):
                for name, start in zip(decl.names, decl.name_starts):
                    self.declare(
                        self.agents, name, Agent.make(name), start, start + len(name),
                        "agent '{}' is already declared",
                    )

    def collect_types(self) -> None:
        for decl in self.ast.parts:
            if isinstance(decl, TypeDecl):
                name = decl.name
                self.declare(
                    self.types, name, PromiseTypeDecl(name, decl.kind),  # type: ignore[arg-type]
                    decl.name_start, decl.name_end, "type '{}' is already declared",
                )
            elif isinstance(decl, FlagDecl):
                name = decl.name
                self.declare(
                    self.types, name, PromiseTypeDecl(name, KIND_FLAG),
                    decl.name_start, decl.name_start + len(name),
                    "'{}' is already declared (types and flags share one namespace)",
                )

    # -- term and condition resolution --------------------------------------

    def resolve_term(self, node: TermNode, scope: _Scope) -> tuple[Term, str]:
        """Returns (term, kind); kind is 'num', 'str', or 'unknown'."""
        if isinstance(node, NumberTerm):
            return NumConst(node.value), KIND_NUM
        if isinstance(node, StringTerm):
            return StrConst(node.value), KIND_STR
        if isinstance(node, ParamTerm):
            return Parameter(node.name), scope.kind(node.name)
        if isinstance(node, IdentTerm):
            decl = self.types.get(node.name)
            if decl is None:
                self.named_terms += 1
                return NamedConst(node.name), _UNKNOWN
            if decl.kind == KIND_FLAG:
                self.error(
                    E_RESOLVE_NOT_A_FLAG,
                    f"flag '{node.name}' cannot be compared to a value",
                    node.start,
                    node.end,
                )
                return NamedConst(node.name), _UNKNOWN
            if decl.kind == KIND_SERVICE:
                self.error(
                    E_RESOLVE_VALUELESS_TYPE,
                    f"service type '{node.name}' carries no value",
                    node.start,
                    node.end,
                )
                return NamedConst(node.name), _UNKNOWN
            return Attribute(node.name), decl.kind
        raise TypeError(f"not a term node: {node!r}")

    def unify_kinds(
        self,
        left: tuple[Term, str],
        right: tuple[Term, str],
        scope: _Scope,
        node: Union[CmpLiteralNode, BodyNode],
    ) -> None:
        """Relate two terms by '=' or a comparison in ``node``: report a num
        related to a str, else put their parameters in one class of the known
        kind."""
        (lterm, lkind), (rterm, rkind) = left, right
        if _UNKNOWN not in (lkind, rkind) and lkind != rkind:
            self.error(
                E_RESOLVE_KIND_CONFLICT,
                f"cannot relate a {lkind} value to a {rkind} value",
                node.start,
                node.end,
            )
            return
        scope.join((lterm, rterm), rkind if lkind == _UNKNOWN else lkind)

    def resolve_condition(
        self, node: Union[ConditionNode, None], scope: _Scope
    ) -> Condition:
        if node is None:
            return ALWAYS
        literals: list[ConditionLiteral] = []
        for lit in node.literals:
            if isinstance(lit, FlagLiteralNode):
                decl = self.types.get(lit.name)
                if decl is None:
                    self.error(
                        E_RESOLVE_UNKNOWN_TYPE,
                        f"unknown flag '{lit.name}'",
                        lit.name_start,
                        lit.end,
                    )
                    continue
                if decl.kind != KIND_FLAG:
                    self.error(
                        E_RESOLVE_NOT_A_FLAG,
                        f"'{lit.name}' is a {decl.kind} type, not a flag",
                        lit.name_start,
                        lit.end,
                    )
                    continue
                literals.append(FlagLiteral(lit.name, lit.negated))
            elif isinstance(lit, CmpLiteralNode):
                left = self.resolve_term(lit.lhs, scope)
                right = self.resolve_term(lit.rhs, scope)
                self.unify_kinds(left, right, scope, lit)
                op = "eq" if lit.op == "==" else "neq"
                literals.append(CmpLiteral(left[0], op, right[0]))  # type: ignore[arg-type]
        return Condition(frozenset(literals))

    def resolve_body(
        self, node: BodyNode, scope: _Scope
    ) -> Union[PromiseBody, None]:
        condition = self.resolve_condition(node.condition, scope)

        if isinstance(node.subject, ParamTerm):
            # Constraint-only body: give $w = $h;
            if node.polarity == USE:
                self.error(
                    E_RESOLVE_USE_CONSTRAINT,
                    "a use body accepts behaviour and cannot carry constraints",
                    node.start,
                    node.end,
                )
                return None
            type_name = LINK_TYPE
            left = self.resolve_term(node.subject, scope)
        else:
            type_name = node.subject.name
            decl = self.types.get(type_name)
            if decl is None:
                self.error(
                    E_RESOLVE_UNKNOWN_TYPE,
                    f"unknown type or flag '{type_name}'",
                    node.subject.start,
                    node.subject.end,
                )
                return None
            if node.value is None:
                return PromiseBody(node.polarity, type_name, frozenset(), condition)  # type: ignore[arg-type]

            # A value is attached: only valued types may take one, only on give.
            if node.polarity == USE:
                self.error(
                    E_RESOLVE_USE_CONSTRAINT,
                    f"a use body accepts '{type_name}' as promised and cannot constrain it",
                    node.start,
                    node.end,
                )
                return None
            if decl.kind not in VALUED_KINDS:
                what = "flag" if decl.kind == KIND_FLAG else "service type"
                self.error(
                    E_RESOLVE_VALUELESS_TYPE,
                    f"{what} '{type_name}' takes no value",
                    node.start,
                    node.end,
                )
                return None
            left = (Attribute(type_name), decl.kind)
        assert node.value is not None  # the grammar gives a parameter subject "= term"
        right = self.resolve_term(node.value, scope)
        self.unify_kinds(left, right, scope, node)
        return PromiseBody(
            GIVE, type_name, frozenset({EqConstraint(left[0], right[0])}), condition
        )

    # -- bundles -------------------------------------------------------------

    def collect_bundles(self) -> None:
        for decl in self.ast.parts:
            if isinstance(decl, BundleDecl):
                self.declare(
                    self.bundle_decls, decl.name, decl,
                    decl.name_start, decl.name_start + len(decl.name),
                    "bundle '{}' is already declared",
                )

        for name, decl in self.bundle_decls.items():
            parent = decl.parent
            if parent is not None and parent not in self.bundle_decls:
                self.error(
                    E_RESOLVE_UNKNOWN_BUNDLE,
                    f"unknown parent bundle '{parent}'",
                    decl.parent_start,
                    decl.parent_start + len(parent),
                )
                parent = None
            scope = _Scope()  # one parameter scope per bundle
            bodies = []
            named_terms = self.named_terms
            for body_node in decl.bodies:
                body = self.resolve_body(body_node, scope)
                if body is not None:
                    bodies.append(body)
            self.bundles[name] = Bundle(name, tuple(bodies), parent)
            if self.named_terms != named_terms:
                self.named_bundles.add(name)

        # A cycle leaves flat_bundles empty: the run has an error and builds
        # no graph, so attachments need not be expanded.
        try:
            flat = flatten_bundles(self.bundles.values())
        except BundleCycleError as exc:
            first = self.bundle_decls[exc.cycle[0]]
            self.error(
                E_RESOLVE_CYCLE, str(exc), first.name_start, first.name_start + len(first.name)
            )
            return
        self.flat_bundles = {b.name: b for b in flat}
        # A flat bundle holds a named constant when a bundle it extends does.
        for name in self.bundles if self.named_bundles else ():
            ancestor: Union[str, None] = name
            while ancestor is not None and ancestor not in self.named_bundles:
                ancestor = self.bundles[ancestor].parent
            if ancestor is not None:
                self.named_bundles.add(name)

    # -- promises ------------------------------------------------------------

    def check_agent(self, name: str, start: int) -> Union[str, None]:
        """The declared agent's own name string, or None when it is unknown;
        ``start`` is where ``name`` was read."""
        agent = self.agents.get(name)
        if agent is None:
            self.error(
                E_RESOLVE_UNKNOWN_AGENT, f"unknown agent '{name}'", start, start + len(name)
            )
            return None
        return agent.name

    def collect_promises(self) -> None:
        """Turn every promise declaration into promises, in file order.

        Each direct statement's (body, group) pair is memoised for this call,
        keyed on its source text, ``text[node.start:node.end]``: a ``str``
        hashes and compares in C, where a ``BodyNode`` key hashed and compared
        its syntax tree through ``Value`` once per lookup.  The key is exact.
        Equal text read from a token boundary lexes and parses to an equal
        node.  A direct statement resolves in a fresh ``_Scope()`` of its own
        against the type table alone, which is complete before this runs, so
        equal nodes resolve to equal bodies.  A body that drew a diagnostic is
        not memoised, so it is resolved, and reported, at every occurrence.
        Where the slice is empty, as in a library-built tree whose offsets are
        all 0, the node itself is the key.  The memo stays exact only while a
        direct statement resolves independently of every other statement.
        Named constants take one kind per channel, which reads every
        statement of the channel, so that check runs after the memo, on the
        promises built here (``check_named_kinds``), and never changes what
        the memo holds.  ``build_graph`` then makes equal bodies one
        object.

        A statement token (see the lexer) becomes promises from its pieces
        alone, with no syntax node, when both its agents are declared and it
        is a direct body whose text the memo holds with no named constant,
        or an attachment, never conditioned in a token, of a flat bundle
        that holds none.  This is exact.  ``statement_decl`` gives the body
        node the offsets ``start + keyword_at`` and ``end``, so the node
        path's key is the token's text from ``keyword_at`` on, and on a hit
        with both agents declared the node path makes the same promise and
        reports nothing.  An unconditioned attachment of a flat bundle
        expands the same flat bodies under the same group, and reports
        nothing either.  Neither promise is one that ``check_named_kinds``
        reads, and the token's offsets are its declaration's.  Any other
        statement has its declaration built and takes the node path, which
        reports every diagnostic from nodes and fills the memo on a miss."""
        text = self.ast.lines.text
        resolved: dict[Hashable, tuple[PromiseBody, str, bool]] = {}
        # Per channel, each promise that may relate a named constant.
        named: dict[tuple[str, str], list[tuple[Promise, PromiseDecl]]] = {}
        promises, starts, ends = self.promises, self.starts, self.ends
        agents, flat_bundles, named_bundles = self.agents, self.flat_bundles, self.named_bundles
        for part in self.ast.parts:
            if part.__class__ is tuple:  # a statement token
                _, pieces, raw, start, end = part
                giver, taker, _, keyword, keyword_at, name, _, _, _ = pieces  # type: ignore
                giver, taker = agents.get(giver), agents.get(taker)
                if giver is not None and taker is not None:
                    if keyword == "bundle":
                        flat = flat_bundles.get(name)
                        if flat is not None and name not in named_bundles:
                            group = bundle_group(name)
                            for body in flat.bodies:
                                promises.append(Promise(giver.name, taker.name, body, group))
                                starts.append(start)
                                ends.append(end)
                            continue
                    else:
                        entry = resolved.get(raw[keyword_at:])
                        if entry is not None and not entry[2]:
                            promises.append(Promise(giver.name, taker.name, entry[0], entry[1]))
                            starts.append(start)
                            ends.append(end)
                            continue
                decl = statement_decl(part)  # type: ignore[arg-type]
            elif isinstance(part, PromiseDecl):
                decl = part
            else:
                continue
            promiser = self.check_agent(decl.promiser, decl.start)
            promisee = self.check_agent(decl.promisee, decl.promisee_start)
            ok = promiser is not None and promisee is not None

            if isinstance(decl.item, BundleRef):
                ref = decl.item
                bundle = self.bundles.get(ref.name)
                if bundle is None:
                    self.error(
                        E_RESOLVE_UNKNOWN_BUNDLE,
                        f"unknown bundle '{ref.name}'",
                        ref.name_start,
                        ref.name_start + len(ref.name),
                    )
                    continue
                attach_cond = ALWAYS
                named_terms = self.named_terms
                if ref.condition is not None:
                    attach_cond = self.resolve_condition(ref.condition, _Scope())
                flat = flat_bundles.get(bundle.name)
                if not ok or flat is None:
                    continue
                group = bundle_group(bundle.name)
                # A bundle's parameters span its bodies, so every body of an
                # attachment that holds a named constant is checked.
                held = bundle.name in named_bundles or self.named_terms != named_terms
                for body in flat.bodies:
                    if not attach_cond.is_empty:
                        body = PromiseBody(
                            body.polarity,
                            body.type,
                            body.constraints,
                            body.condition.conjoin(attach_cond),
                        )
                    promise = Promise(promiser, promisee, body, group)
                    promises.append(promise)
                    starts.append(decl.start)
                    ends.append(decl.end)
                    if held:
                        named.setdefault((promiser, promisee), []).append((promise, decl))
            else:
                node = decl.item
                key = text[node.start:node.end] or node
                entry = resolved.get(key)
                if entry is None:
                    reported = len(self.diagnostics)
                    named_terms = self.named_terms
                    body = self.resolve_body(node, _Scope())
                    if body is None:
                        continue
                    entry = (body, derive_group(body), self.named_terms != named_terms)
                    if len(self.diagnostics) == reported:
                        resolved[key] = entry
                if ok:
                    body, group, held = entry
                    promise = Promise(promiser, promisee, body, group)
                    promises.append(promise)
                    starts.append(decl.start)
                    ends.append(decl.end)
                    if held:
                        named.setdefault((promiser, promisee), []).append((promise, decl))
        if named:
            self.check_named_kinds(named)

    def check_named_kinds(
        self, named: dict[tuple[str, str], list[tuple[Promise, PromiseDecl]]]
    ) -> None:
        """Report each named constant that takes two kinds on one channel.

        ``named`` lists per channel, in file order, each promise whose body
        holds a named constant, or that comes from a bundle attachment one of
        whose bodies does, with its declaration.  A named constant is one
        value across its channel, and a parameter one value across its
        declaration: a statement, or a bundle attachment.  A constraint or a
        comparison relates its two terms, which puts them in one class, whose
        kind is that of the attributes, numbers and strings in it.  The first
        relation, in file order, that would give a class holding a named
        constant a second kind is reported at its declaration's item, once
        per declaration and constant.  A class of parameters alone is left
        to ``unify_kinds``, and so is a channel of one relation."""
        for (promiser, promisee), held in named.items():
            relations = [
                (decl, pair) for promise, decl in held for pair in _pairs(promise.body)
            ]
            if len(relations) < 2:
                continue
            classes = UnionFind()
            info: dict[Hashable, tuple[str, Union[str, None]]] = {}  # root -> (kind, name)
            reported: set[tuple[int, str]] = set()
            for decl, pair in relations:
                nodes: list[Hashable] = []
                kinds = set()
                for term in pair:
                    if isinstance(term, NamedConst):
                        nodes.append(term)
                    elif isinstance(term, Parameter):
                        nodes.append((id(decl), term))
                    else:
                        kinds.add(self.term_kind(term))
                if not nodes:
                    continue
                names = [t.name for t in nodes if isinstance(t, NamedConst)]
                roots = []
                for node in nodes:
                    classes.add(node)
                    root = classes.find(node)
                    roots.append(root)
                    kind, name = info.get(root, (_UNKNOWN, None))
                    kinds.add(kind)
                    if name is not None:
                        names.append(name)
                kinds.discard(_UNKNOWN)
                if len(kinds) > 1:
                    if names and (id(decl), names[0]) not in reported:
                        reported.add((id(decl), names[0]))
                        first, second = sorted(kinds)
                        self.error(
                            E_RESOLVE_KIND_CONFLICT,
                            f"named constant '{names[0]}' is related to both a {first} and "
                            f"a {second} value on channel {promiser} -> {promisee}",
                            decl.item.start,
                            decl.item.end,
                        )
                    continue
                if len(roots) == 2:
                    classes.union(*roots)
                info[classes.find(nodes[0])] = (
                    kinds.pop() if kinds else _UNKNOWN, names[0] if names else None
                )

    def term_kind(self, term: Term) -> str:
        """The kind of a constant or an attribute: 'num', 'str', or
        'unknown' for a type that takes no value."""
        if isinstance(term, NumConst):
            return KIND_NUM
        if isinstance(term, StrConst):
            return KIND_STR
        decl = self.types.get(term.name)  # an Attribute: its type is declared
        return decl.kind if decl is not None and decl.kind in VALUED_KINDS else _UNKNOWN

    # -- entry ---------------------------------------------------------------

    def run(self) -> ResolveResult:
        self.collect_agents()
        self.collect_types()
        self.collect_bundles()
        self.collect_promises()
        if has_errors(self.diagnostics):
            return ResolveResult(None, sorted(self.diagnostics, key=diagnostic_sort_key))

        try:
            graph = build_graph(
                self.agents.values(),
                self.types.values(),
                self.bundles.values(),
                self.promises,
            )
        except PromiseModelError as exc:  # pragma: no cover - prevalidated
            self.error(E_RESOLVE_DUPLICATE, str(exc), 0, 0)
            return ResolveResult(None, sorted(self.diagnostics, key=diagnostic_sort_key))

        findings = validate_autonomy(graph)
        if findings:
            # Each promise at its first declaration.
            first_sites: dict[Promise, tuple[int, int]] = {}
            for p, start, end in zip(self.promises, self.starts, self.ends):
                first_sites.setdefault(p, (start, end))
            for finding in findings:
                self.diagnostics.append(Diagnostic(
                    WARNING, W_AUTONOMY, finding.message,
                    self.ast.span(*first_sites[finding.promise]),
                ))
        return ResolveResult(graph, sorted(self.diagnostics, key=diagnostic_sort_key))


def _pairs(body: PromiseBody) -> list[tuple[Term, Term]]:
    """The term pairs that a body's constraints and comparisons relate, in
    term order: a frozenset's order changes with the hash seed."""
    pairs = [(c.lhs, c.rhs) for c in body.constraints]
    pairs += [(lit.lhs, lit.rhs) for lit in body.condition.literals if isinstance(lit, CmpLiteral)]
    if len(pairs) > 1:
        pairs.sort(key=lambda pair: (term_key(pair[0]), term_key(pair[1])))
    return pairs


def resolve(ast: ModelAst) -> ResolveResult:
    """Resolve a parsed model into a promise graph plus diagnostics.

    Returns a graph only when there are no errors; autonomy findings are
    attached as warnings either way.
    """
    return _Resolver(ast).run()
