"""Worlds: the maximal sets of conditions that can hold together.

A conditional promise is in force only where its condition holds, so every
analyzer asks its question once per world.  ``worlds`` enumerates them
exactly; ``judge`` walks them, keeping the entries in force in each one,
closing their constraints together with the world's own equalities and
testing the closure against the world's disequalities.  ``name_world``
writes every world's name in a finding.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .constraints import closure, ConditionTable, TermPartition, UnionFind
from .model import (
    Condition,
    EqConstraint,
    FlagLiteral,
    is_constant,
    Parameter,
    PromiseBody,
    Term,
)
from .value import Value

Item = TypeVar("Item")


def name_world(conditions: Iterable[Condition]) -> str:
    """The suffix naming, in a finding, the world where ``conditions`` hold:
    ``" (when a & b)"`` from their ``Condition.text``s in sorted order, or
    ``""`` when there is no condition."""
    texts = sorted({c.text for c in conditions if not c.is_empty})
    return f" (when {' & '.join(texts)})" if texts else ""


class World(Value):
    """One maximal co-satisfiable set of conditions, with the equalities and
    disequalities those conditions impose."""

    __slots__ = ("active", "eqs", "neqs")

    def __init__(
        self,
        active: frozenset[Condition],
        eqs: tuple[EqConstraint, ...],
        neqs: tuple[tuple[Term, Term], ...],
    ) -> None:
        set_active, set_eqs, set_neqs = self._setters
        set_active(self, active)
        set_eqs(self, eqs)
        set_neqs(self, neqs)

    @property
    def when(self) -> str:
        """The suffix naming the world in a finding (see ``name_world``)."""
        return name_world(self.active)

    def closure(self, extra: Iterable[EqConstraint]) -> TermPartition:
        """The closure of the world's equalities with ``extra``."""
        return closure([*self.eqs, *extra])


def _components(conditions: Sequence[Condition], members: Sequence[int]) -> list[list[int]]:
    """``members`` (indices into ``conditions``) grouped so that no two
    groups share a flag name or a non-constant term, each group in
    ascending order.

    Conditions in different groups never clash.  A clash joins two distinct
    constants, or the two sides of one disequality, by a chain of
    equalities.  Inside a shortest chain every term is a non-constant, except
    at most one constant between the non-constant sides of a disequality,
    and then both halves touch the disequality's own terms.  So each clash
    lies inside one group."""
    uf = UnionFind()
    for i in members:
        uf.add(i)
        for lit in conditions[i].literals:
            if isinstance(lit, FlagLiteral):
                keys: tuple = (("flag", lit.name),)
            else:
                keys = tuple(t for t in (lit.lhs, lit.rhs) if not is_constant(t))
            for key in keys:
                uf.union(key, i)
    groups: dict[object, list[int]] = {}
    for i in members:
        groups.setdefault(uf.find(i), []).append(i)
    return list(groups.values())


def _maximal_subsets(
    fits: Callable[[tuple[int, ...]], bool], members: Sequence[int]
) -> list[tuple[int, ...]]:
    """The maximal subsets of ``members`` that ``fits``, by include/exclude
    backtracking in member order."""
    found: list[tuple[int, ...]] = []
    # (next position, chosen indices, indices left out although they fit)
    stack: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), ())]
    while stack:
        pos, chosen, skipped = stack.pop()
        if pos == len(members):
            if not any(fits(chosen + (i,)) for i in skipped):
                found.append(chosen)
            continue
        i = members[pos]
        held = chosen + (i,)
        rest = tuple(members[pos + 1 :])
        if fits(held + rest):
            # Every set that leaves i out still fits i: none is maximal.
            stack.append((pos + 1, held, skipped))
        elif rest and fits(held):
            stack.append((pos + 1, chosen, skipped + (i,)))
            stack.append((pos + 1, held, skipped))
        else:
            stack.append((pos + 1, chosen, skipped))
    return found


def worlds(
    conditions: Iterable[Condition], table: Optional[ConditionTable] = None
) -> list[World]:
    """Maximal co-satisfiable combinations of the distinct conditions seen.

    Each world carries the equality/disequality premises its conditions
    impose; bodies with conditions outside the world are dormant.

    The satisfiable distinct conditions split into independent components
    (``_components``); include/exclude backtracking finds each component's
    maximal satisfiable subsets, and the worlds are their product.  The
    result is exact, with no cap.  Worlds come largest first, then in order
    of the sorted indices of their conditions.

    Cost: every satisfiability test ORs the flag masks of a tuple of
    indices, compiled in ``table``; only a tuple whose conditions hold an
    equality or a disequality is closed.  Each backtracking step runs at
    most two tests, and each leaf one more per condition it left out
    although it fit.  The exclude branch of a condition is cut when
    everything after it still fits beside it, so compatible conditions and
    separate components cost one step each, and the work grows with the
    number of worlds times the number of conditions, not with 2^k.  Inside
    one component, a clash among its last conditions keeps that cut from
    firing for the ones before it; the backtracking can then visit
    exponentially many leaves that its maximality test refutes."""
    table = ConditionTable() if table is None else table
    distinct = sorted(
        {c for c in conditions if not c.is_empty},
        key=lambda c: c.text,
    )
    fits = table.subset_test(distinct)
    viable = [i for i in range(len(distinct)) if fits((i,))]
    chosen: list[tuple[int, ...]] = [()]
    for members in _components(distinct, viable):
        subsets = _maximal_subsets(fits, members)
        chosen = [world + subset for world in chosen for subset in subsets]
    ordered = sorted((tuple(sorted(w)) for w in chosen), key=lambda w: (-len(w), w))
    out = []
    for world in ordered:
        eqs: list[EqConstraint] = []
        neqs: list[tuple[Term, Term]] = []
        for i in world:
            _, _, ce, cn = table[distinct[i]]
            eqs += ce
            neqs += cn
        out.append(World(frozenset(distinct[i] for i in world), tuple(eqs), tuple(neqs)))
    return out


def _scoped(body: PromiseBody, scope: str) -> frozenset[EqConstraint]:
    """The body's constraints with its parameters put in ``scope`` (a group
    or a side), apart from every other scope's.  A parameter in the body's
    condition keeps scope "", channel-wide, so the condition does not bind
    its own body's parameter."""

    def rescope(t: Term) -> Term:
        return Parameter(t.name, scope) if isinstance(t, Parameter) else t

    terms = (t for c in body.constraints for t in (c.lhs, c.rhs))
    if not any(isinstance(t, Parameter) and t.scope != scope for t in terms):
        return body.constraints
    return frozenset(
        EqConstraint(rescope(c.lhs), rescope(c.rhs)) for c in body.constraints
    )


def judge(
    entries: Iterable[tuple[Item, PromiseBody, str]],
    table: Optional[ConditionTable] = None,
) -> Iterator[
    tuple[
        World,
        list[tuple[Item, frozenset[EqConstraint]]],
        TermPartition,
        list[tuple[Term, ...]],
    ]
]:
    """Walk the worlds of the entries' conditions, in ``worlds`` order.

    Each entry is (item, body, scope); the body's constraint parameters
    are put in ``scope`` (see ``_scoped``).  For each world this yields the
    world; the entries in force in it (unconditional, or with a condition
    of the world) in input order, each as (item, scoped constraints); the
    closure of their constraints with the world's equalities; and the
    closure's clashing classes against the world's disequalities, empty
    when the world's promises can all hold.  The closure of a world is
    made only when the caller asks for that world.  The worlds of each
    condition set are kept in ``table``; closures stay per list and per
    world."""
    scoped = [(item, body.condition, _scoped(body, scope)) for item, body, scope in entries]
    table = ConditionTable() if table is None else table
    conditions = frozenset(c for _, c, _ in scoped if not c.is_empty)
    found = table.worlds.get(conditions)
    if found is None:
        found = table.worlds[conditions] = worlds(conditions, table)
    for world in found:
        in_force = [
            (item, cons) for item, c, cons in scoped if c.is_empty or c in world.active
        ]
        part = world.closure(c for _, cons in in_force for c in cons)
        clashing = [] if part.admits(world.neqs) else part.clashing_classes(world.neqs)
        yield world, in_force, part, clashing
