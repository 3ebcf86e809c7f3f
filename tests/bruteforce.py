"""Slow, obviously correct oracles for cross-checking the fast code.

Five families live here: finite-domain enumeration for the constraint
engine, the sweep over every subset of conditions that the analyzers' world
enumeration replaced, the is-a and override verdicts of unconditional
bundles decided from their definitions, a character-by-character reference
lexer, and linear scans standing in for the ``PromiseGraph`` indexes and for
``discover_roles``' one pass.

The constraint oracles decide satisfiability and entailment the slow,
obviously correct way: enumerate every assignment of domain values to the free terms
and evaluate the formulas directly.  No union-find, no closure — only the
shared term dataclasses are reused, never the algorithms under test.

Exactness caveat: a finite domain can refute formulas that are satisfiable
over arbitrarily many values.  With distinct interpreted constants drawn
from the domain itself and at most ``len(domain) - 1`` disequality edges,
every closure-level model can be realized inside the domain (each class is
either pinned to one constant or free to pick among ``len(domain)`` values
while avoiding at most ``len(domain) - 1`` neighbours), so the enumeration
agrees with the unbounded semantics.  The generators in the tests stay
inside that regime.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from promisekit.analysis import IN, OUT
from promisekit.constraints import condition_satisfiable
from promisekit.dsl.diagnostics import (
    E_LEX_BAD_ESCAPE,
    E_LEX_BAD_PARAM,
    E_LEX_ILLEGAL_CHAR,
    E_LEX_NUMBER_RANGE,
    E_LEX_UNTERMINATED_STRING,
    ERROR,
)
from promisekit.dsl.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    KEYWORDS,
    NUMBER,
    OP,
    PARAM,
    STRING,
)
from promisekit.model import (
    Bundle,
    CmpLiteral,
    Condition,
    EqConstraint,
    FlagLiteral,
    format_condition,
    GIVE,
    is_constant,
    Parameter,
    Promise,
    PromiseBody,
    PromiseGraph,
    Term,
)
from promisekit.worlds import World

Value = Union[int, str]
Assignment = Mapping[Term, Value]


def _constant_value(term: Term) -> Value:
    return term.value  # type: ignore[union-attr]


def _split_terms(terms: Iterable[Term]) -> tuple[list[Term], list[Term]]:
    """Partition into (interpreted constants, free terms), deterministically."""
    seen: dict[Term, None] = {}
    for term in terms:
        seen.setdefault(term, None)
    constants = [t for t in seen if is_constant(t)]
    free = [t for t in seen if not is_constant(t)]
    return constants, free


def assignments(
    terms: Iterable[Term], domain: Sequence[Value]
) -> Iterator[Assignment]:
    """Every map fixing constants to their own value and frees to the domain.

    The domain is widened with any constant values present so that a free
    term can always be set equal to a constant it is compared against.
    """
    constants, free = _split_terms(terms)
    values = list(domain)
    for const in constants:
        if _constant_value(const) not in values:
            values.append(_constant_value(const))
    base = {c: _constant_value(c) for c in constants}
    for choice in product(values, repeat=len(free)):
        env = dict(base)
        env.update(zip(free, choice))
        yield env


def _eq_terms(constraints: Iterable[EqConstraint]) -> list[Term]:
    out: list[Term] = []
    for c in constraints:
        out.append(c.lhs)
        out.append(c.rhs)
    return out


def _holds(env: Assignment, constraints: Iterable[EqConstraint]) -> bool:
    return all(env[c.lhs] == env[c.rhs] for c in constraints)


def oracle_satisfiable(
    constraints: Sequence[EqConstraint],
    disequalities: Sequence[tuple[Term, Term]] = (),
    domain: Sequence[Value] = (0, 1, 2),
) -> bool:
    """True iff some assignment satisfies every equality and disequality."""
    terms = _eq_terms(constraints)
    for a, b in disequalities:
        terms.append(a)
        terms.append(b)
    for env in assignments(terms, domain):
        if _holds(env, constraints) and all(
            env[a] != env[b] for a, b in disequalities
        ):
            return True
    return False


def oracle_same_class_pairs(
    constraints: Sequence[EqConstraint],
    domain: Sequence[Value] = (0, 1, 2),
) -> set[frozenset[Term]]:
    """Unordered pairs of distinct terms equal under every satisfying model.

    If no assignment satisfies the equalities (possible only when a constant
    is forced outside the domain), every pair is vacuously entailed and the
    full pair set is returned.
    """
    terms = list(dict.fromkeys(_eq_terms(constraints)))
    pairs = {
        frozenset((s, t))
        for i, s in enumerate(terms)
        for t in terms[i + 1 :]
    }
    alive = set(pairs)
    witnessed = False
    for env in assignments(terms, domain):
        if not _holds(env, constraints):
            continue
        witnessed = True
        alive = {p for p in alive if len({env[t] for t in p}) == 1}
        if not alive:
            break
    return alive if witnessed else pairs


def oracle_entails(
    constraints: Sequence[EqConstraint],
    goal: EqConstraint,
    domain: Sequence[Value] = (0, 1, 2),
) -> bool:
    """True iff every model of the constraints also satisfies the goal."""
    terms = _eq_terms(constraints) + [goal.lhs, goal.rhs]
    return all(
        env[goal.lhs] == env[goal.rhs]
        for env in assignments(terms, domain)
        if _holds(env, constraints)
    )


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

def _condition_parts(
    conds: Iterable[Condition],
) -> tuple[set[str], list[Term]]:
    flags: set[str] = set()
    terms: list[Term] = []
    for cond in conds:
        for lit in cond.literals:
            if isinstance(lit, FlagLiteral):
                flags.add(lit.name)
            else:
                terms.append(lit.lhs)
                terms.append(lit.rhs)
    return flags, terms


def _literal_true(
    lit: Union[CmpLiteral, FlagLiteral],
    env: Assignment,
    flag_env: Mapping[str, bool],
) -> bool:
    if isinstance(lit, FlagLiteral):
        return flag_env[lit.name] != lit.negated
    outcome = env[lit.lhs] == env[lit.rhs]
    return outcome if lit.op == "eq" else not outcome


def oracle_conditions_satisfiable(
    conds: Sequence[Condition],
    domain: Sequence[Value] = (0, 1, 2),
) -> bool:
    """True iff one joint model makes every condition's literals all true."""
    flags, terms = _condition_parts(conds)
    flag_names = sorted(flags)
    for env in assignments(terms, domain):
        for bits in product((False, True), repeat=len(flag_names)):
            flag_env = dict(zip(flag_names, bits))
            if all(
                _literal_true(lit, env, flag_env)
                for cond in conds
                for lit in cond.literals
            ):
                return True
    return False


def oracle_mutually_exclusive(
    c1: Condition,
    c2: Condition,
    domain: Sequence[Value] = (0, 1, 2),
) -> bool:
    return not oracle_conditions_satisfiable([c1, c2], domain)


# ---------------------------------------------------------------------------
# Worlds: every subset of the distinct conditions
# ---------------------------------------------------------------------------

def split_condition(
    cond: Condition,
) -> tuple[list[EqConstraint], list[tuple[Term, Term]], dict[str, bool]]:
    """A condition's equalities, disequalities, and flag polarity map, read
    off its literals without a ``ConditionTable``.  Raises ValueError on an
    internally contradictory flag pair."""
    eqs: list[EqConstraint] = []
    neqs: list[tuple[Term, Term]] = []
    flags: dict[str, bool] = {}
    for lit in cond.sorted_literals():
        if isinstance(lit, FlagLiteral):
            wanted = not lit.negated
            if flags.setdefault(lit.name, wanted) != wanted:
                raise ValueError(f"flag {lit.name!r} both required and forbidden")
            continue
        if lit.op == "eq":
            eqs.append(EqConstraint(lit.lhs, lit.rhs))
        else:
            neqs.append((lit.lhs, lit.rhs))
    return eqs, neqs, flags


def reference_scenarios(conditions: Iterable[Condition]) -> list[World]:
    """Maximal co-satisfiable combinations of the distinct conditions seen,
    found by testing all 2^k subsets, largest first."""
    distinct = sorted(
        {c for c in conditions if not c.is_empty},
        key=lambda c: format_condition(c),
    )
    viable = [c for c in distinct if condition_satisfiable(c)]
    subsets: list[frozenset[Condition]] = []
    for r in range(len(viable), -1, -1):
        for combo in combinations(viable, r):
            if not condition_satisfiable(*combo):
                continue
            chosen = frozenset(combo)
            if any(chosen < bigger for bigger in subsets):
                continue
            if chosen not in subsets:
                subsets.append(chosen)
    if not subsets:
        subsets = [frozenset()]
    scenarios = []
    for chosen in subsets:
        eqs: list[EqConstraint] = []
        neqs: list[tuple[Term, Term]] = []
        for cond in chosen:
            ce, cn, _ = split_condition(cond)
            eqs.extend(ce)
            neqs.extend(cn)
        scenarios.append(World(chosen, tuple(eqs), tuple(neqs)))
    return scenarios


# ---------------------------------------------------------------------------
# Is-a and the override policy on unconditional bundles
# ---------------------------------------------------------------------------

def _constraints(bundle: Bundle, scope: Union[str, None] = None) -> list[EqConstraint]:
    """Every constraint of the bundle; with a ``scope``, each parameter is
    renamed into it, apart from any other side's parameters."""

    def place(term: Term) -> Term:
        if scope is not None and isinstance(term, Parameter):
            return Parameter(term.name, scope)
        return term

    if any(not body.condition.is_empty for body in bundle.bodies):
        raise ValueError("the oracle judges unconditional bundles only")
    return [
        EqConstraint(place(c.lhs), place(c.rhs)) for b in bundle.bodies for c in b.constraints
    ]


def _narrowed_pairs(
    base: Sequence[EqConstraint], union: Sequence[EqConstraint], vocabulary: set[Term]
) -> set[frozenset[Term]]:
    """Pairs of ``vocabulary`` terms equal in every model of ``union`` but
    not in every model of ``base``; both must be satisfiable."""
    forced = {p for p in oracle_same_class_pairs(union) if p <= vocabulary}
    return forced - oracle_same_class_pairs(base)


def oracle_is_a(child: Bundle, parent: Bundle) -> tuple[str, set[frozenset[Term]]]:
    """The is-a outcome from its definition, each side's parameters its own:
    ``"unsatisfiable"`` when either bundle alone has no model,
    ``"inconsistent"`` when their union has none, else ``"restricted"`` with
    the pairs of the parent's attributes and constants that the union forces
    equal and the parent alone does not, or ``"is-a"`` when there are none."""
    theirs, ours = _constraints(parent, "parent"), _constraints(child, "child")
    if not (oracle_satisfiable(theirs) and oracle_satisfiable(ours)):
        return "unsatisfiable", set()
    if not oracle_satisfiable(theirs + ours):
        return "inconsistent", set()
    vocabulary = {t for c in theirs for t in c.terms() if not isinstance(t, Parameter)}
    pairs = _narrowed_pairs(theirs, theirs + ours, vocabulary)
    return ("restricted" if pairs else "is-a"), pairs


def oracle_override(
    base: Bundle, child: Bundle
) -> Union[list[tuple[PromiseBody, set[frozenset[Term]]]], None]:
    """The override policy from its definition, parameters shared: None when
    the union of the two bundles has no model; else, for each base body in
    ``sorted_bodies`` order, the pairs of base terms that the union forces
    equal and the base alone does not, and that hold a term of that body."""
    theirs, ours = _constraints(base), _constraints(child)
    if not oracle_satisfiable(theirs + ours):
        return None
    pairs = _narrowed_pairs(theirs, theirs + ours, {t for c in theirs for t in c.terms()})
    return [
        (body, {p for p in pairs if p & {t for c in body.constraints for t in c.terms()}})
        for body in base.sorted_bodies()
    ]


# ---------------------------------------------------------------------------
# Reference lexer
# ---------------------------------------------------------------------------

_TWO_CHAR_OPS = ("->", "==", "!=")
_ONE_CHAR_OPS = frozenset(";,:.{}=")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


# Where a token or diagnostic lies: (file, start_line, start_col, end_line,
# end_col, start_offset, end_offset), lines and columns 1-based.
Place = tuple[str, int, int, int, int, int, int]


def reference_tokenize(
    text: str, file: str = "<model>"
) -> tuple[list[tuple], list[tuple]]:
    """The lexer's contract, one character at a time and nothing cleverer.

    Returns tokens as (type, value, text, place) and diagnostics as
    (severity, code, message, place), with every line and column counted
    here, character by character, rather than taken from a ``SourceSpan``.

    Numbers are runs of ``str.isdecimal`` characters: ``int`` and ``float``
    accept every such digit and reject ``isdigit``-only ones such as '²',
    which are therefore illegal characters.  A digit run is an exact
    ``int``, a fraction the nearest ``float``; one that neither holds is
    reported.
    """
    tokens: list[tuple] = []
    diagnostics: list[tuple] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def place_from(start_i: int, start_line: int, start_col: int) -> Place:
        return (file, start_line, start_col, line, col, start_i, i)

    def emit(type_: str, value, start_i: int, start_line: int, start_col: int) -> None:
        tokens.append(
            (type_, value, text[start_i:i], place_from(start_i, start_line, start_col))
        )

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def error(code: str, message: str, start: tuple[int, int, int]) -> None:
        diagnostics.append((ERROR, code, message, place_from(*start)))

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and text[i] not in "\r\n":
                advance()
            continue

        start = (i, line, col)

        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            word = text[start[0]:i]
            emit(KEYWORD if word in KEYWORDS else IDENT, word, *start)
            continue

        if ch.isdecimal():
            while i < n and text[i].isdecimal():
                advance()
            if i + 1 < n and text[i] == "." and text[i + 1].isdecimal():
                advance()
                while i < n and text[i].isdecimal():
                    advance()
            raw = text[start[0]:i]
            value: Union[int, float, None]
            if "." in raw:
                value = float(raw)
                if value == float("inf"):
                    value = None
                elif value.is_integer():
                    value = int(value)
            else:
                try:
                    value = int(raw)
                except ValueError:  # more digits than int() reads
                    value = None
            if value is None:
                error(E_LEX_NUMBER_RANGE, "number literal is too large to read", start)
            else:
                emit(NUMBER, value, *start)
            continue

        if ch == "$":
            advance()
            if i >= n or not (text[i].isalpha() or text[i] == "_"):
                error(E_LEX_BAD_PARAM, "'$' must be followed by a parameter name", start)
                continue
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            emit(PARAM, text[start[0] + 1 : i], *start)
            continue

        if ch == '"':
            advance()
            value_chars: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance()
                    closed = True
                    break
                if c in "\r\n":
                    break
                if c == "\\":
                    advance()
                    if i < n and text[i] in _ESCAPES:
                        value_chars.append(_ESCAPES[text[i]])
                        advance()
                    else:
                        bad = text[i] if i < n else "<eof>"
                        error(E_LEX_BAD_ESCAPE, f"unknown escape '\\{bad}' in string", start)
                        if i < n:
                            value_chars.append(text[i])
                            advance()
                    continue
                value_chars.append(c)
                advance()
            if not closed:
                error(E_LEX_UNTERMINATED_STRING, "string literal is never closed", start)
            emit(STRING, "".join(value_chars), *start)
            continue

        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            advance(2)
            emit(OP, two, *start)
            continue
        if ch in _ONE_CHAR_OPS:
            advance()
            emit(OP, ch, *start)
            continue

        advance()
        error(E_LEX_ILLEGAL_CHAR, f"unexpected character {ch!r}", start)

    tokens.append((EOF, "", "", (file, line, col, line, col, i, i)))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# Graph scans
# ---------------------------------------------------------------------------

def scan_promises_from(graph: PromiseGraph, agent: str) -> tuple[Promise, ...]:
    return tuple(p for p in graph.promises if p.promiser == agent)


def scan_promises_to(graph: PromiseGraph, agent: str) -> tuple[Promise, ...]:
    return tuple(p for p in graph.promises if p.promisee == agent)


def scan_given_types(graph: PromiseGraph, giver: str, receiver: str) -> frozenset[str]:
    return frozenset(
        p.body.type
        for p in graph.promises
        if p.promiser == giver and p.promisee == receiver and p.body.polarity == GIVE
    )


def scan_channels(graph: PromiseGraph) -> dict[tuple[str, str], tuple[Promise, ...]]:
    out: dict[tuple[str, str], list[Promise]] = {}
    for p in graph.promises:
        out.setdefault((p.promiser, p.promisee), []).append(p)
    return {k: tuple(v) for k, v in sorted(out.items())}


def role_signature(graph: PromiseGraph, agent: str) -> tuple:
    """Multiset of (direction, polarity, type) over the agent's promises,
    found by scanning every promise once per direction.  Constraints and
    conditions are invisible, and so are constraint-only link bodies."""
    counts: Counter = Counter()
    for direction, promises in (
        (OUT, scan_promises_from(graph, agent)),
        (IN, scan_promises_to(graph, agent)),
    ):
        for p in promises:
            if not p.body.is_link:
                counts[(direction, p.body.polarity, p.body.type)] += 1
    return tuple(sorted(counts.items()))
