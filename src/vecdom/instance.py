"""Annotated instances of planar vector domination.

An instance is a simple graph with a per-vertex demand, a selection budget,
and a set of forbidden ("blue") vertices that may never enter a solution.
Every reduction rule and both exact solvers operate on this one mutable
class.  During a run every change is a :class:`ReductionEvent` that
:func:`apply` makes.  Vertex ids are stable: deleting a vertex never
renumbers the rest, so a log of reduction events can be replayed against a
copy of the original instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping


class VecdomError(Exception):
    """Base class for errors raised by this package."""


class UnknownVertexError(VecdomError):
    pass


class InvalidInstanceError(VecdomError):
    """Raised when an operation requires a well-formed instance but got violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class Status(enum.Enum):
    OPEN = "open"
    DECIDED_YES = "yes"
    DECIDED_NO = "no"


# the rule_id of the kernel-size certificate, the one event not from a numbered rule
KERNEL_BOUND = "kernel_bound"


@dataclass(frozen=True, eq=False)
class ReductionEvent:
    """One change to an instance, as :func:`apply` makes it.

    Every rule describes its change as an event built from the instance's
    current state, and :func:`apply` makes it; the run's log is the list
    of events applied.  ``rule_id`` is 1..13 or ``KERNEL_BOUND``: a
    numbered rule, or the kernel-size certificate.  A removed vertex's
    incident edges are listed in ``removed_edges``.  ``demand_deltas``
    holds the deltas as they apply, already clamped at zero.
    """

    rule_id: int | str
    removed_vertices: frozenset[int] = frozenset()
    removed_edges: frozenset[tuple[int, int]] = frozenset()
    demand_deltas: Mapping[int, int] = field(default_factory=dict)
    budget_delta: int = 0
    newly_blue: frozenset[int] = frozenset()
    status_after: Status | None = None


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class AnnotatedInstance:
    """Mutable graph + demand vector + budget + forbidden set.

    The graph is simple by construction: the constructor refuses a
    self-loop, which never counts toward a demand, and an edge whose
    endpoints do not exist; repeated edges collapse into one.  It is
    deliberately permissive about demands so that :func:`validate` can
    report problems.  The adjacency is keyed in increasing id order,
    which copies and deletions keep, so :attr:`vertices` reads it unsorted.
    """

    __slots__ = ("_adj", "demand", "budget", "forbidden", "status")

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int]] = (),
        demand: Mapping[int, int] | None = None,
        budget: int = 0,
        forbidden: Iterable[int] = (),
        status: Status = Status.OPEN,
    ):
        self._adj: dict[int, set[int]] = {v: set() for v in sorted(map(int, vertices))}
        for u, v in edges:
            if u not in self._adj or v not in self._adj:
                raise UnknownVertexError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise InvalidInstanceError([f"self-loop at {v}"])
            self._add_edge(u, v)
        self.demand: dict[int, int] = {v: 0 for v in self._adj}
        for v, d in (demand or {}).items():
            if v not in self._adj:
                raise UnknownVertexError(f"demand given for missing vertex {v}")
            self.demand[v] = int(d)
        self.budget = int(budget)
        self.forbidden: set[int] = set(forbidden)
        self.status = status

    # -- read access ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    @property
    def vertices(self) -> list[int]:
        """The vertex ids in increasing order, as a new list."""
        return list(self._adj)

    def vertex_set(self):
        return self._adj.keys()

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        """The live adjacency set of ``v``; treat as read-only."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u <= v:
                    out.append((u, v))
        return sorted(out)

    def total_demand(self) -> int:
        return sum(self.demand.values())

    # -- mutation ------------------------------------------------------

    def _add_edge(self, u: int, v: int) -> None:
        self._adj[u].add(v)
        self._adj[v].add(u)

    def delete_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise UnknownVertexError(f"edge ({u}, {v}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def delete_vertex(self, v: int) -> None:
        """Remove ``v`` with its incident edges."""
        for u in self.neighbors(v):
            self._adj[u].discard(v)
        del self._adj[v]
        del self.demand[v]
        self.forbidden.discard(v)

    def color_blue(self, v: int) -> None:
        if v not in self._adj:
            raise UnknownVertexError(f"unknown vertex {v}")
        self.forbidden.add(v)

    # -- plumbing ------------------------------------------------------

    def copy(self) -> "AnnotatedInstance":
        dup = AnnotatedInstance.__new__(AnnotatedInstance)
        dup._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        dup.demand = dict(self.demand)
        dup.budget = self.budget
        dup.forbidden = set(self.forbidden)
        dup.status = self.status
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotatedInstance):
            return NotImplemented
        return (
            self._adj == other._adj
            and self.demand == other.demand
            and self.budget == other.budget
            and self.forbidden == other.forbidden
            and self.status == other.status
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"AnnotatedInstance(n={self.n}, m={self.m}, k={self.budget}, "
            f"blue={len(self.forbidden)}, status={self.status.value})"
        )


def validate(instance: AnnotatedInstance) -> list[str]:
    """Return a list of invariant violations, empty when the instance is well formed.

    Planarity is not an invariant here: ``parse`` refuses files above the
    3n-6 edge bound, and ``embed`` refuses any non-planar graph with a
    witness.  The constructor builds no self-loop and no asymmetric
    adjacency, so those checks guard only an adjacency written directly.
    """
    out = []
    adj = instance._adj
    for v, nbrs in adj.items():
        if v in nbrs:
            out.append(f"self-loop at {v}")
        for u in nbrs:
            if u not in adj:
                out.append(f"edge ({v}, {u}) references missing vertex {u}")
            elif u != v and v not in adj[u]:
                out.append(f"asymmetric adjacency between {v} and {u}")
    for v, d in instance.demand.items():
        if d < 0:
            out.append(f"negative demand at {v}")
    for v in instance.forbidden:
        if v not in adj:
            out.append(f"forbidden vertex {v} is not in the graph")
    if instance.status is Status.DECIDED_YES:
        if any(instance.demand.values()) or instance.budget < 0:
            out.append("status is yes but demands remain or budget is negative")
    return out


def require_valid(instance: AnnotatedInstance) -> None:
    """Raise ``InvalidInstanceError`` with every violation ``validate``
    finds; return quietly on a well-formed instance."""
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)


def dominates(instance: AnnotatedInstance, chosen: Iterable[int], targets: Iterable[int]) -> bool:
    """True when every target outside ``chosen`` has at least its demand in ``chosen``.

    Members of ``chosen`` are satisfied by convention: the problem only
    constrains vertices outside the solution.
    """
    chosen = set(chosen)
    adj = instance._adj
    for v in chosen:
        if v not in adj:
            raise UnknownVertexError(f"unknown vertex {v}")
    for v in targets:
        if v not in adj:
            raise UnknownVertexError(f"unknown vertex {v}")
        if v in chosen:
            continue
        need = instance.demand[v]
        if need and len(adj[v] & chosen) < need:
            return False
    return True


def neighborhood(instance: AnnotatedInstance, v: int) -> set[int]:
    """``v`` with its neighbors of positive demand, as a new set computed
    from the current state."""
    demand = instance.demand
    out = {u for u in instance.neighbors(v) if demand[u] >= 1}
    out.add(v)
    return out


def vertex_removal(
    instance: AnnotatedInstance, v: int, rule_id: int | str, **changes
) -> ReductionEvent:
    """The event that deletes ``v`` with its incident edges, plus ``changes``."""
    return ReductionEvent(
        rule_id=rule_id,
        removed_vertices=frozenset({v}),
        removed_edges=frozenset(_edge(v, u) for u in instance.neighbors(v)),
        **changes,
    )


def force_into_solution(instance: AnnotatedInstance, v: int, rule_id: int) -> ReductionEvent:
    """Commit ``v`` to the solution: delete it, relax its neighbors, spend budget.

    Builds the event from the current state and returns it applied.
    Forcing a forbidden vertex, or spending the budget below zero, decides
    the instance NO; the event records the decision.
    """
    demand = instance.demand
    deltas = {u: -1 for u in sorted(instance.neighbors(v)) if demand[u] > 0}
    decides_no = instance.status is Status.OPEN and (
        v in instance.forbidden or instance.budget < 1
    )
    return apply(instance, vertex_removal(
        instance, v, rule_id,
        demand_deltas=deltas,
        budget_delta=-1,
        status_after=Status.DECIDED_NO if decides_no else None,
    ))


def apply(instance: AnnotatedInstance, event: ReductionEvent) -> ReductionEvent:
    """Make the change ``event`` describes, mutating ``instance``; returns ``event``.

    This is the one code that changes an instance during a run.  An edge
    or vertex the event names but the instance lacks raises
    :class:`UnknownVertexError`; the instance may then be partly changed.
    """
    for u, v in event.removed_edges:
        instance.delete_edge(u, v)
    for v in event.removed_vertices:
        instance.delete_vertex(v)
    for v, delta in event.demand_deltas.items():
        if v not in instance.demand:
            raise UnknownVertexError(f"demand change for missing vertex {v}")
        instance.demand[v] = max(0, instance.demand[v] + delta)
    instance.budget += event.budget_delta
    for v in event.newly_blue:
        instance.color_blue(v)
    if event.status_after is not None:
        instance.status = event.status_after
    return event


def replay(instance: AnnotatedInstance, events: Iterable[ReductionEvent]) -> AnnotatedInstance:
    """Apply recorded events to ``instance`` in order, mutating and returning it."""
    for event in events:
        apply(instance, event)
    return instance
