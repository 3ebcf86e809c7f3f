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
        self.decls: list[PromiseDecl] = []  # the declaration of each promise

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
        for decl in self.ast.decls:
            if isinstance(decl, AgentDecl):
                for name, start in zip(decl.names, decl.name_starts):
                    self.declare(
                        self.agents, name, Agent.make(name), start, start + len(name),
                        "agent '{}' is already declared",
                    )

    def collect_types(self) -> None:
        for decl in self.ast.decls:
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
        for decl in self.ast.decls:
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
            for body_node in decl.bodies:
                body = self.resolve_body(body_node, scope)
                if body is not None:
                    bodies.append(body)
            self.bundles[name] = Bundle(name, tuple(bodies), parent)

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
        direct statement resolves independently of every other statement; a
        change that lets one statement's resolution read another's (such as
        channel-wide kinds for named constants) must keep that, or re-key.
        ``build_graph`` then makes equal bodies one object."""
        text = self.ast.lines.text
        resolved: dict[Hashable, tuple[PromiseBody, str]] = {}
        promises, decls = self.promises, self.decls
        for decl in self.ast.decls:
            if not isinstance(decl, PromiseDecl):
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
                if ref.condition is not None:
                    attach_cond = self.resolve_condition(ref.condition, _Scope())
                flat = self.flat_bundles.get(bundle.name)
                if not ok or flat is None:
                    continue
                group = bundle_group(bundle.name)
                for body in flat.bodies:
                    if not attach_cond.is_empty:
                        body = PromiseBody(
                            body.polarity,
                            body.type,
                            body.constraints,
                            body.condition.conjoin(attach_cond),
                        )
                    promises.append(Promise(promiser, promisee, body, group))
                    decls.append(decl)
            else:
                node = decl.item
                key = text[node.start:node.end] or node
                pair = resolved.get(key)
                if pair is None:
                    reported = len(self.diagnostics)
                    body = self.resolve_body(node, _Scope())
                    if body is None:
                        continue
                    pair = (body, derive_group(body))
                    if len(self.diagnostics) == reported:
                        resolved[key] = pair
                if ok:
                    promises.append(Promise(promiser, promisee, *pair))
                    decls.append(decl)

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
            first_decls: dict[Promise, PromiseDecl] = {}
            for p, decl in zip(self.promises, self.decls):
                first_decls.setdefault(p, decl)
            for finding in findings:
                first = first_decls[finding.promise]
                self.diagnostics.append(Diagnostic(
                    WARNING, W_AUTONOMY, finding.message, self.ast.span(first.start, first.end)
                ))
        return ResolveResult(graph, sorted(self.diagnostics, key=diagnostic_sort_key))


def resolve(ast: ModelAst) -> ResolveResult:
    """Resolve a parsed model into a promise graph plus diagnostics.

    Returns a graph only when there are no errors; autonomy findings are
    attached as warnings either way.
    """
    return _Resolver(ast).run()
