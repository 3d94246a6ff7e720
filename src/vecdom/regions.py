"""Candidate regions and the planar blue-coloring rules.

A candidate region between two anchor vertices is a disk of the embedding
bounded by two short demand-typed paths, such that the anchors alone could
satisfy everything strictly inside.  Anything buried in such a disk is
highly constrained, which is what the three coloring rules exploit: they
mark interior vertices as forbidden unless the vertex is one of the few
that could still be essential to a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import AnnotatedInstance, ReductionEvent, UnknownVertexError, VecdomError, dominates
from .planarity import ClosedWalkRegion, RotationSystem, StaleEmbeddingError, cycle_sides


class MalformedPathError(VecdomError):
    pass


@dataclass(frozen=True)
class TypedPath:
    """A short anchor-to-anchor path that qualifies as a region boundary.

    Type 1 is any path of two edges.  Type 2 is a four-edge path whose
    inner pattern is 1-vertex, 0-vertex, anything, with the two inner ends
    not adjacent to the far anchors.  Type 3 is a three-edge path whose
    vertex next to one anchor has demand at most one.  Types 2 and 3 may
    match the pattern read from either anchor.
    """

    a1: int
    a2: int
    interior: tuple[int, ...]
    path_type: int

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.a1, *self.interior, self.a2)


@dataclass(frozen=True)
class CandidateRegion:
    """One side of the cycle closed by two typed paths, with its vertex classes.

    The classes depend only on the graph and demands the region was built
    on, never on the forbidden set.  The internal boundary is the boundary
    without the two anchors.

    high_boundary: internal boundary vertices with demand >= 2.
    fringe: interior vertices adjacent to an internal boundary vertex.
    core: interior vertices with no internal-boundary neighbor.
    crosslinks: region vertices adjacent to two high-demand boundary vertices.
    """

    a1: int
    a2: int
    outer1: TypedPath
    outer2: TypedPath
    side: ClosedWalkRegion
    interior: frozenset[int]
    high_boundary: frozenset[int]
    fringe: frozenset[int]
    core: frozenset[int]
    crosslinks: frozenset[int]

    @property
    def boundary(self) -> frozenset[int]:
        return frozenset(self.side.boundary)

    @property
    def closed_vertices(self) -> frozenset[int]:
        return self.boundary | self.interior


def _check_path(instance: AnnotatedInstance, path, a1: int, a2: int) -> tuple[int, ...]:
    path = tuple(path)
    if len(path) < 2 or path[0] != a1 or path[-1] != a2 or a1 == a2:
        raise MalformedPathError(f"path {path} does not run from {a1} to {a2}")
    if len(set(path)) != len(path):
        raise MalformedPathError(f"path {path} repeats a vertex")
    for u, v in zip(path, path[1:]):
        if not instance.has_edge(u, v):
            raise MalformedPathError(f"path step ({u}, {v}) is not an edge")
    return path


def classify_path(instance: AnnotatedInstance, path, a1: int, a2: int) -> set[int]:
    """Types the given path satisfies when read from ``a1`` to ``a2``.

    The result has at most one element since each type fixes the path
    length; callers probing both orientations classify the reversed path
    separately.
    """
    path = _check_path(instance, path, a1, a2)
    edges = len(path) - 1
    d = instance.demand
    if edges == 2:
        return {1}
    if edges == 3:
        v = path[1]
        return {3} if d[v] <= 1 else set()
    if edges == 4:
        v, c, v2 = path[1], path[2], path[3]
        if (
            d[c] == 0
            and d[v] == 1
            and v not in instance.neighbors(a2)
            and v2 not in instance.neighbors(a1)
        ):
            return {2}
        return set()
    return set()


_NO_PATHS = ((), (), ())

# The type of the two-, three- and four-edge paths, in the order they are listed.
_TYPE_BY_LENGTH = (1, 3, 2)


def _typed_interiors(instance: AnnotatedInstance, nbrs, a1: int, min_far: int) -> dict:
    """Interiors of the typed paths from ``a1`` to every vertex ``>= min_far``.

    One depth-first search over the sorted neighbor lists ``nbrs`` walks the
    simple paths of two to four edges from ``a1`` and types each one while
    it grows, read from both ends as :func:`classify_path` would: type 3
    needs a vertex of demand at most one next to an anchor; type 2 needs a
    zero-demand middle, inner ends off the far anchors and a demand-1
    inner end.  A path that cannot become typed is not extended.  The
    result maps each far anchor to three lists (two-, three- and four-edge
    interiors), each in lexicographic order, so concatenated they follow
    ``(len, path)``.
    """
    d = instance.demand
    adj = instance._adj
    around_a1 = adj[a1]
    found: dict[int, tuple[list, list, list]] = {}

    def bucket(v):
        lists = found.get(v)
        if lists is None:
            lists = found[v] = ([], [], [])
        return lists

    for x in nbrs[a1]:
        around_x = adj[x]
        for y in nbrs[x]:
            if y == a1:
                continue
            if y >= min_far:
                bucket(y)[0].append((x,))
            type3 = d[x] <= 1 or d[y] <= 1
            deep = d[y] == 0
            if not (type3 or deep):
                continue
            for z in nbrs[y]:
                if z == a1 or z == x:
                    continue
                if type3 and z >= min_far:
                    bucket(z)[1].append((x, y))
                if not deep or z in around_a1 or (d[x] != 1 and d[z] != 1):
                    continue
                # Excluding the neighbors of x also excludes a1 and y.
                for w in nbrs[z]:
                    if w >= min_far and w != x and w not in around_x:
                        bucket(w)[2].append((x, y, z))
    return found


def _sorted_neighbors(instance: AnnotatedInstance) -> dict[int, list[int]]:
    return {v: sorted(nbrs) for v, nbrs in instance._adj.items()}


def _check_cap(max_paths: int | None) -> None:
    if max_paths is not None and max_paths < 0:
        raise ValueError("the path cap must be non-negative")


def _as_typed(a1: int, a2: int, by_length, max_paths: int | None) -> list[TypedPath]:
    typed = [
        TypedPath(a1, a2, inner, path_type)
        for path_type, group in zip(_TYPE_BY_LENGTH, by_length)
        for inner in group
    ]
    return typed if max_paths is None else typed[:max_paths]


def enumerate_boundary_paths(
    instance: AnnotatedInstance, a1: int, a2: int, max_paths: int | None = None
) -> list[TypedPath]:
    """Typed paths between two anchors, in a deterministic order."""
    for a in (a1, a2):
        if not instance.has_vertex(a):
            raise UnknownVertexError(f"unknown vertex {a}")
    if a1 == a2:
        raise MalformedPathError("anchors must be distinct")
    _check_cap(max_paths)
    by_length = _typed_interiors(instance, _sorted_neighbors(instance), a1, a2).get(a2, _NO_PATHS)
    return _as_typed(a1, a2, by_length, max_paths)


class RegionIndex:
    """Typed paths and candidate regions of every anchor pair of one embedding.

    Pairs are ``(a1, a2)`` with ``a1 < a2``.  The typed paths from each
    ``a1`` come from one search, run when the first of its pairs is asked
    for; a pair's regions are built when first asked for.  Both are kept,
    so the region phases of a fixpoint run and the kernel statistics that
    follow it share one enumeration while the graph and demands stay the
    same.  Regions do not depend on the forbidden set.
    """

    def __init__(self, instance: AnnotatedInstance, rs: RotationSystem, max_paths: int | None):
        if not rs.describes(instance):
            raise StaleEmbeddingError("embedding no longer matches the instance")
        _check_cap(max_paths)
        self.instance = instance
        self.rs = rs
        self.max_paths = max_paths
        self._demand = dict(instance.demand)
        self._nbrs = _sorted_neighbors(instance)
        self._found: dict[int, dict] = {}
        self._regions: dict[tuple[int, int], list[CandidateRegion]] = {}

    def describes(self, instance: AnnotatedInstance) -> bool:
        """Whether this index still holds for ``instance``: the same object,
        with the graph and demands it had when the index was built."""
        return (
            instance is self.instance
            and instance.demand == self._demand
            and self.rs.describes(instance)
        )

    def _from(self, a1: int) -> dict:
        found = self._found.get(a1)
        if found is None:
            found = self._found[a1] = _typed_interiors(self.instance, self._nbrs, a1, a1 + 1)
        return found

    def far_ends(self, a1: int) -> list[int]:
        """The vertices above ``a1`` that at least one typed path joins to it."""
        return sorted(self._from(a1))

    def paths(self, a1: int, a2: int) -> list[TypedPath]:
        """The pair's typed paths in ``(len, path)`` order, cut to the cap."""
        return _as_typed(a1, a2, self._from(a1).get(a2, _NO_PATHS), self.max_paths)

    def capped(self, a1: int, a2: int) -> bool:
        """Whether the cap cut the pair's typed paths."""
        by_length = self._from(a1).get(a2, _NO_PATHS)
        return self.max_paths is not None and sum(map(len, by_length)) > self.max_paths

    def regions(self, a1: int, a2: int) -> list[CandidateRegion]:
        """The pair's inclusion-maximal candidate regions."""
        key = (a1, a2)
        regions = self._regions.get(key)
        if regions is None:
            regions = self._regions[key] = _regions_from_paths(
                self.instance, self.rs, a1, a2, self.paths(a1, a2)
            )
        return regions


def enumerate_candidate_regions(
    instance: AnnotatedInstance,
    rs: RotationSystem,
    a1: int,
    a2: int,
    max_paths: int | None = None,
) -> list[CandidateRegion]:
    """Inclusion-maximal candidate regions anchored at the given pair.

    Every internally disjoint pair of typed paths closes into a simple
    cycle; each side of that cycle qualifies when the anchors dominate all
    of its strictly interior vertices.  Among qualifying regions only
    those whose closed vertex set is not strictly contained in another's
    survive.
    """
    if not rs.describes(instance):
        raise StaleEmbeddingError("embedding no longer matches the instance")
    paths = enumerate_boundary_paths(instance, a1, a2, max_paths)
    return _regions_from_paths(instance, rs, a1, a2, paths)


def _regions_from_paths(instance, rs, a1, a2, paths) -> list[CandidateRegion]:
    adj = instance._adj
    d = instance.demand
    anchors = {a1, a2}

    def keep(w):
        return d[w] <= len(adj[w] & anchors)

    raw = []
    seen_keys = set()
    for i in range(len(paths)):
        pi = paths[i]
        set_i = set(pi.interior)
        for j in range(i + 1, len(paths)):
            pj = paths[j]
            if set_i & set(pj.interior):
                continue
            cycle = (a1, *pi.interior, a2, *reversed(pj.interior))
            for side in cycle_sides(rs, cycle, keep):
                if side is None:
                    continue
                closed = frozenset(cycle) | side.inside
                key = (closed, side.inside)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                raw.append((pi, pj, side, closed))
    maximal = []
    for pi, pj, side, closed in raw:
        if any(closed < other_closed for _, _, _, other_closed in raw):
            continue
        maximal.append((pi, pj, side, closed))
    maximal.sort(key=lambda item: (sorted(item[3]), sorted(item[2].inside), item[2].side))
    out = []
    for pi, pj, side, closed in maximal:
        internal_boundary = frozenset(side.boundary) - anchors
        high_boundary = frozenset(v for v in internal_boundary if d[v] >= 2)
        if len(high_boundary) > 2:
            raise AssertionError("typed boundary admits at most two high-demand vertices")
        fringe = frozenset(v for v in side.inside if adj[v] & internal_boundary)
        crosslinks = frozenset(v for v in closed if len(adj[v] & high_boundary) >= 2)
        out.append(CandidateRegion(
            a1, a2, pi, pj, side, side.inside,
            high_boundary, fringe, side.inside - fringe, crosslinks,
        ))
    return out


def _color(instance: AnnotatedInstance, v: int, rule_id: int) -> ReductionEvent:
    instance.color_blue(v)
    return ReductionEvent(rule_id=rule_id, newly_blue=frozenset({v}))


def rule6(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Color interior vertices that neither reach the high-demand boundary nor
    could alone satisfy the core.

    Like rules 7 and 8, this reads the vertex classes stored on ``region``,
    so the region must have been built on the instance's current graph and
    demands; only the forbidden set may have changed since.
    """
    if not region.core:
        return []
    adj = instance._adj
    events = []
    for u in sorted(region.interior):
        if u in instance.forbidden:
            continue
        if adj[u] & region.high_boundary:
            continue
        if dominates(instance, {u}, region.core):
            continue
        events.append(_color(instance, u, 6))
    return events


def rule7(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Coloring rule for regions that have crosslinked boundary vertices.

    An interior vertex stays selectable only if it is a crosslink, or it
    satisfies the core alone, or it can cover the core (or an anchor's
    share of it) together with one suitable partner.  The region must have
    been built on the instance's current graph and demands.
    """
    if not region.core or not region.crosslinks:
        return []
    adj = instance._adj
    near_high = set()
    for y in region.high_boundary:
        near_high |= adj[y]
    core_a1 = region.core & adj[region.a1]
    core_a2 = region.core & adj[region.a2]
    events = []
    for w in sorted(region.interior):
        if w in instance.forbidden:
            continue
        if w in region.crosslinks or dominates(instance, {w}, region.core):
            continue
        if any(dominates(instance, {w, w2}, region.core) for w2 in sorted(near_high)):
            continue
        if any(
            dominates(instance, {w, w2}, core_a1) or dominates(instance, {w, w2}, core_a2)
            for w2 in sorted(region.crosslinks)
        ):
            continue
        events.append(_color(instance, w, 7))
    return events


def rule8(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Coloring rule for regions without crosslinks.

    Exemptions: vertices that satisfy the core alone; vertices covering
    the core with a partner drawn from around an adjacent high-demand
    boundary vertex; and, when the high-demand boundary hangs off one
    anchor, vertices covering the rest of the core with a partner from
    around the high-demand boundary.  The region must have been built on
    the instance's current graph and demands.
    """
    if not region.core or region.crosslinks:
        return []
    adj = instance._adj
    near_high = set()
    for y in region.high_boundary:
        near_high |= adj[y]
    events = []
    for u in sorted(region.interior):
        if u in instance.forbidden:
            continue
        if dominates(instance, {u}, region.core):
            continue
        partners = set()
        for y in sorted(adj[u] & region.high_boundary):
            partners |= adj[y]
        if any(dominates(instance, {u, u2}, region.core) for u2 in sorted(partners)):
            continue
        exempt = False
        for anchor in (region.a1, region.a2):
            if region.high_boundary <= adj[anchor]:
                rest = region.core - adj[anchor]
                if any(dominates(instance, {u, u2}, rest) for u2 in sorted(near_high)):
                    exempt = True
                    break
        if exempt:
            continue
        events.append(_color(instance, u, 8))
    return events
