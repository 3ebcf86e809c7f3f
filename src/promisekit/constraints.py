"""Equality reasoning over flat terms.

The heart of the analyzer: a union-find closure over equality constraints,
plus satisfiability with disequalities, canonical reduction, entailment, and
mutual exclusivity of conditions.  Terms are atomic (no function symbols), so
congruence degenerates to transitive closure of the stated equalities.

An analyzer call keeps its condition work in one ``ConditionTable``: each
condition compiled once (flags become two bit masks over a numbering the
call owns) and the worlds of each condition set.  One conjunction decides
every question about conditions (``condition_satisfiable``,
``mutually_exclusive``, ``pairwise_exclusive`` and ``worlds``).  It ORs
the masks, so a flag clash is one ``&``, and closes only conjunctions that
hold an equality or a disequality.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

from .errors import UnsatisfiableError
from .model import (
    Attribute,
    Condition,
    EqConstraint,
    FlagLiteral,
    NamedConst,
    Parameter,
    Term,
    format_term,
    is_constant,
    term_key,
)
from .value import Value


class UnionFind:
    """Plain union-find with path halving over any hashable nodes.

    ``find`` tests for a root by identity, not by ``==`` (a ``Value``
    ``__eq__`` per step on terms).  This is exact because every parent is a
    stored key: ``add`` makes a new key its own parent and ``union`` links
    roots that ``find`` returned, so a root's parent is the stored key
    itself.  An equal copy of a stored key takes one more step, to that
    key; so ``find`` returns stored keys only, and two nodes share a class
    iff their roots are one object."""

    def __init__(self) -> None:
        self.parent: dict[Hashable, Hashable] = {}

    def add(self, x: Hashable) -> None:
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x: Hashable) -> Hashable:
        p = self.parent
        while p[x] is not x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> None:
        self.add(a)
        self.add(b)
        self.parent[self.find(a)] = self.find(b)


class TermPartition:
    """The equivalence classes of a closure, read off its union-find.

    Classes are tuples sorted by term order; the canonical representative of a
    class is its smallest member (constants before named constants before
    attributes before parameters).  Terms never mentioned are implicitly
    singleton classes.  The classes are sorted when first read; ``same_class``
    and ``admits`` answer on the union-find's roots and never sort them.
    """

    def __init__(self, uf: UnionFind) -> None:
        self._uf = uf

    @cached_property
    def classes(self) -> tuple[tuple[Term, ...], ...]:
        groups: dict[Term, list[Term]] = {}
        for t in self._uf.parent:
            groups.setdefault(self._uf.find(t), []).append(t)
        return tuple(
            sorted(
                (tuple(sorted(cls, key=term_key)) for cls in groups.values()),
                key=lambda c: term_key(c[0]),
            )
        )

    @cached_property
    def _class_of(self) -> dict[Term, tuple[Term, ...]]:
        return {t: cls for cls in self.classes for t in cls}

    def class_of(self, t: Term) -> tuple[Term, ...]:
        return self._class_of.get(t, (t,))

    def same_class(self, a: Term, b: Term) -> bool:
        parent, find = self._uf.parent, self._uf.find
        return a == b or (a in parent and b in parent and find(a) is find(b))

    def admits(self, disequalities: Iterable[tuple[Term, Term]] = ()) -> bool:
        """True iff no class holds two distinct constants and no disequality
        pair falls inside one class.  Decided on the roots (see ``UnionFind``)."""
        find = self._uf.find
        pinned = [id(find(t)) for t in self._uf.parent if is_constant(t)]
        if len(set(pinned)) < len(pinned):
            return False
        return not any(self.same_class(a, b) for a, b in disequalities)

    def clashing_classes(
        self, disequalities: Iterable[tuple[Term, Term]] = ()
    ) -> list[tuple[Term, ...]]:
        """The classes that keep ``admits`` from holding: each class with two
        distinct constants, then the class of each violated disequality."""
        clashing = [cls for cls in self.classes if sum(map(is_constant, cls)) > 1]
        clashing += [self.class_of(a) for a, b in disequalities if self.same_class(a, b)]
        return clashing

    def new_pairs_over(
        self, baseline: "TermPartition", vocabulary: Iterable[Term]
    ) -> tuple[tuple[Term, Term], ...]:
        """Vocabulary pairs merged here but not in ``baseline``."""
        vocab = set(vocabulary)
        pairs = []
        for cls in self.classes:
            members = [t for t in cls if t in vocab]
            pairs += [
                (a, b)
                for i, a in enumerate(members)
                for b in members[i + 1 :]
                if not baseline.same_class(a, b)
            ]
        return tuple(sorted(pairs, key=lambda p: (term_key(p[0]), term_key(p[1]))))


def closure(
    constraints: Iterable[EqConstraint], extra_terms: Iterable[Term] = ()
) -> TermPartition:
    """Least equivalence over the mentioned terms containing every equality."""
    uf = UnionFind()
    for t in extra_terms:
        uf.add(t)
    for c in constraints:
        uf.union(c.lhs, c.rhs)
    return TermPartition(uf)


def satisfiable(
    constraints: Iterable[EqConstraint],
    disequalities: Iterable[tuple[Term, Term]] = (),
) -> bool:
    """True iff the closure of ``constraints`` admits ``disequalities``."""
    return closure(constraints).admits(disequalities)


def reduce(constraints: Iterable[EqConstraint]) -> frozenset[EqConstraint]:
    """Canonical minimal form: bind each attribute (and named constant) of a
    class to the class's binding target.

    The target is the class constant when present, else its first parameter,
    else its first named constant, else its first attribute — so
    ``{width=$w, height=$h, $w=$h}`` reduces to ``{width=$h, height=$h}``.
    Parameter-only classes are unobservable and drop out.  Rejects
    unsatisfiable input.
    """
    source = list(constraints)
    part = closure(source)
    clashing = part.clashing_classes()
    if clashing:
        a, b = [t for t in clashing[0] if is_constant(t)][:2]
        raise UnsatisfiableError(
            f"cannot reduce: {format_term(a)} and {format_term(b)} are forced equal"
        )
    out: list[EqConstraint] = []
    for cls in part.classes:
        consts = [t for t in cls if is_constant(t)]
        params = [t for t in cls if isinstance(t, Parameter)]
        named = [t for t in cls if isinstance(t, NamedConst)]
        attrs = [t for t in cls if isinstance(t, Attribute)]
        if not (consts or named or attrs):
            continue  # parameters only: nothing observable to bind
        if consts:
            target: Term = consts[0]
        elif params:
            target = params[0]
        elif named:
            target = named[0]
        else:
            target = attrs[0]
        for member in named + attrs:
            if member != target:
                out.append(EqConstraint(member, target))
    return frozenset(out)


def entails(
    base: Iterable[EqConstraint], candidate: Iterable[EqConstraint]
) -> bool:
    """True iff every candidate equality already holds in closure(base).
    Both sets must be satisfiable."""
    part = closure(base)
    cand_list = list(candidate)
    if not part.admits() or not satisfiable(cand_list):
        raise UnsatisfiableError("entails requires satisfiable constraint sets")
    return all(part.same_class(c.lhs, c.rhs) for c in cand_list)


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

class ExclusivityVerdict(Value):
    """Outcome of a mutual-exclusivity test; carries a satisfying assignment
    sketch exactly when the conditions can hold together."""

    __slots__ = ("exclusive", "witness")

    def __init__(
        self, exclusive: bool, witness: Union[tuple[tuple[str, str], ...], None] = None
    ) -> None:
        set_exclusive, set_witness = self._setters
        set_exclusive(self, exclusive)
        set_witness(self, witness)


class ConditionTable(dict):
    """The condition work of one analyzer call.  ``table[cond]`` is the
    condition compiled once into numbered literals: (required, forbidden,
    equalities, disequalities), the flags as bit masks over the table's own
    numbering (``bits``, name to bit), the rest in sorted-literal order.
    ``worlds`` maps each set of non-empty conditions to its worlds (kept by
    ``worlds.judge``).

    Cost: an analyzer builds one table per call and passes it to every
    question it asks, one per channel or role say, so each condition is
    compiled once and each distinct condition set gets its worlds once per
    call.  Worlds depend on the set alone, so a hit is exact.  Nothing
    outlives the call."""

    __slots__ = ("bits", "worlds")

    def __init__(self) -> None:
        super().__init__()
        self.bits: dict[str, int] = {}
        self.worlds: dict[frozenset[Condition], list] = {}

    def __missing__(self, cond: Condition) -> tuple:
        required = forbidden = 0
        eqs: list[EqConstraint] = []
        neqs: list[tuple[Term, Term]] = []
        bits = self.bits
        for lit in cond.sorted_literals():
            if isinstance(lit, FlagLiteral):
                bit = bits.get(lit.name)
                if bit is None:
                    bit = bits[lit.name] = 1 << len(bits)
                if lit.negated:
                    forbidden |= bit
                else:
                    required |= bit
            elif lit.op == "eq":
                eqs.append(EqConstraint(lit.lhs, lit.rhs))
            else:
                neqs.append((lit.lhs, lit.rhs))
        compiled = self[cond] = (required, forbidden, tuple(eqs), tuple(neqs))
        return compiled

    def subset_test(self, conditions: Sequence[Condition]) -> Callable[[Iterable[int]], bool]:
        """A test of which of ``conditions`` can hold at once: called with
        indices into ``conditions``, it tells whether theirs can."""
        compiled = [self[c] for c in conditions]
        return lambda indices: _conjoin([compiled[i] for i in indices]) is not None


def _conjoin(
    compiled: Iterable[tuple],
) -> Union[tuple[int, int, Union[TermPartition, None]], None]:
    """The one conjunction of compiled conditions: None when it cannot hold,
    else its required and forbidden masks and its closure.  The masks are
    ORed, so a flag clash is ``required & forbidden``, and the rest
    concatenated.  With no equality or disequality it holds and is not
    closed (None for the closure); else its closure, with the disequality
    terms as singletons, must admit the disequalities."""
    required = forbidden = 0
    eqs: list[EqConstraint] = []
    neqs: list[tuple[Term, Term]] = []
    for r, f, e, n in compiled:
        required |= r
        forbidden |= f
        eqs += e
        neqs += n
    if required & forbidden:
        return None
    if not (eqs or neqs):
        return required, forbidden, None
    part = closure(eqs, [t for pair in neqs for t in pair])
    return (required, forbidden, part) if part.admits(neqs) else None


def condition_satisfiable(*conds: Condition) -> bool:
    """Can all these conditions hold at once?"""
    table = ConditionTable()
    return _conjoin([table[c] for c in conds]) is not None


def mutually_exclusive(c1: Condition, c2: Condition) -> ExclusivityVerdict:
    """Can ``c1`` and ``c2`` hold at the same time?  Exclusive iff their
    conjunction is unsatisfiable; otherwise the verdict carries a witness
    that they can.  The witness gives one value per class of the
    conjunction's closure, distinct classes distinct synthetic values, so
    every disequality between two classes holds; and each flag of the pair
    as a boolean.  One closure decides both, and none when the conjunction
    holds no equality or disequality."""
    table = ConditionTable()
    conjunction = _conjoin((table[c1], table[c2]))
    if conjunction is None:
        return ExclusivityVerdict(True)
    required, _, part = conjunction
    entries: list[tuple[str, str]] = []
    fresh = 0
    for cls in part.classes if part is not None else ():
        consts = [t for t in cls if is_constant(t)]
        if consts:
            value = format_term(consts[0])
        else:
            value = f"v{fresh}"
            fresh += 1
        for t in cls:
            if not is_constant(t):
                entries.append((format_term(t), value))
    entries += [(name, "true" if bit & required else "false") for name, bit in table.bits.items()]
    return ExclusivityVerdict(False, tuple(sorted(entries)))


def pairwise_exclusive(
    conditions: Sequence[Condition], table: Union[ConditionTable, None] = None
) -> Iterator[tuple[int, int]]:
    """Yield ``(i, j)`` for each pair ``i < j`` of ``conditions`` that can
    hold together, in index order; a family of fewer than two conditions
    has no pair.  This is the one loop that asks which of several
    conditions overlap.  Each condition is compiled in ``table``, and each
    pair decided by one ``_conjoin``, so a pair of flag-only conditions is
    decided on its masks, with no closure."""
    table = ConditionTable() if table is None else table
    for i, a in enumerate(conditions):
        for j in range(i + 1, len(conditions)):
            if _conjoin((table[a], table[conditions[j]])) is not None:
                yield i, j
