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

from .instance import (
    AnnotatedInstance, ReductionEvent, UnknownVertexError, VecdomError, apply, dominates,
)
from .planarity import RotationSystem, StaleEmbeddingError, cycle_sides

# The most typed paths an index keeps per anchor pair; a longer list is cut.
MAX_PATHS_PER_PAIR = 512


class MalformedPathError(VecdomError):
    pass


@dataclass(frozen=True)
class CandidateRegion:
    """One side of the cycle closed by two typed paths, with its vertex classes.

    The classes depend only on the graph and demands the region was built
    on, never on the forbidden set.  The internal boundary is the boundary
    without the two anchors.

    boundary: the vertices of the cycle, anchors included.
    interior: the vertices strictly inside, all dominated by the anchors.
    high_boundary: internal boundary vertices with demand >= 2.
    fringe: interior vertices adjacent to an internal boundary vertex.
    core: interior vertices with no internal-boundary neighbor.
    crosslinks: region vertices adjacent to two high-demand boundary vertices.
    """

    a1: int
    a2: int
    boundary: frozenset[int]
    interior: frozenset[int]
    high_boundary: frozenset[int]
    fringe: frozenset[int]
    core: frozenset[int]
    crosslinks: frozenset[int]


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

    A typed path is a short anchor-to-anchor path that qualifies as a
    region boundary.  Type 1 is any path of two edges.  Type 2 is a
    four-edge path whose inner pattern is 1-vertex, 0-vertex, anything,
    with the two inner ends not adjacent to the far anchors.  Type 3 is a
    three-edge path whose vertex next to one anchor has demand at most
    one.  Types 2 and 3 may match the pattern read from either anchor, so
    a path is typed when it is typed in either orientation; callers probing
    both classify the reversed path separately.  The result has at most
    one element since each type fixes the path length.
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


class RegionIndex:
    """Typed-path interiors and candidate regions of every anchor pair of one embedding.

    This is the one way to reach typed paths and regions: a pair's typed
    paths through :meth:`typed_paths`, its regions through
    :meth:`regions`, every pair's interior sizes through :meth:`region_sizes`.
    Pairs are ``(a1, a2)`` with ``a1 < a2``.  The typed paths from each
    ``a1`` come from one search, run when the first of its pairs is asked
    for, and a pair's maximal sides from one walk, run when its regions
    are first asked for.  Both are kept, and regions are built from the
    kept sides, so a fixpoint run's last region phase and the kernel
    statistics that follow it share one enumeration: the statistics read
    the sides that phase walked and walk every other pair without keeping
    it.  Sides and regions do not depend on the forbidden set.
    Each pair keeps at most ``MAX_PATHS_PER_PAIR`` typed paths, the value
    the module holds when :meth:`typed_paths` searches from the pair's
    ``a1``, and ``cut`` says whether a search so far has cut a list.

    The searches walk the embedding's sorted adjacency lists
    (``rs.adjacency``), which equal the instance's because the
    constructor refuses an embedding that does not describe it.
    """

    def __init__(self, instance: AnnotatedInstance, rs: RotationSystem):
        if not rs.describes(instance):
            raise StaleEmbeddingError("embedding no longer matches the instance")
        self.instance = instance
        self.rs = rs
        self._demand = dict(instance.demand)
        self._found: dict[int, dict] = {}
        self._sides: dict[tuple[int, int], list[tuple[frozenset, ...]]] = {}
        self._by_demand = None
        self.cut = False

    def describes(self, instance: AnnotatedInstance) -> bool:
        """Whether this index still holds for ``instance``: the same object,
        with the graph and demands it had when the index was built."""
        return (
            instance is self.instance
            and instance.demand == self._demand
            and self.rs.describes(instance)
        )

    def typed_paths(self, a1: int) -> dict[int, list[tuple[int, ...]]]:
        """The typed paths of the pairs ``(a1, a2)``, in one read: a dict
        from each ``a2`` above ``a1`` that a typed path joins to it, in
        increasing order, to the pair's interiors.  A pair that no typed
        path joins has no entry.  The dict and its lists are the index's
        own; callers must not change them.

        An interior is the tuple of a path's vertices strictly between
        ``a1`` and ``a2``, read from ``a1``.  A pair's interiors come in
        ``(len, path)`` order, cut to the cap, which sets ``cut``.  An
        interior's length fixes the path's type (see :func:`classify_path`):
        one vertex for type 1, two for type 3, three for type 2.

        One depth-first search over the sorted neighbor lists, run on the
        first read from ``a1``, walks the simple paths of two to four edges
        from ``a1`` and types each one while it grows, read from both ends
        as :func:`classify_path` would: type 3 needs a vertex of demand at
        most one next to an anchor; type 2 needs a zero-demand middle,
        inner ends off the far anchors and a demand-1 inner end.  A path
        that cannot become typed is not extended.  The search emits the
        interiors of each length in lexicographic order, so a stable sort
        by length leaves each far anchor's list in ``(len, path)`` order.
        """
        if not self.instance.has_vertex(a1):
            raise UnknownVertexError(f"unknown vertex {a1}")
        found = self._found.get(a1)
        if found is not None:
            return found
        d = self.instance.demand
        adj = self.instance._adj
        nbrs = self.rs.adjacency
        around_a1 = adj[a1]
        paths: dict[int, list[tuple[int, ...]]] = {}
        for x in nbrs[a1]:
            around_x = adj[x]
            for y in nbrs[x]:
                if y == a1:
                    continue
                if y > a1:
                    paths.setdefault(y, []).append((x,))
                type3 = d[x] <= 1 or d[y] <= 1
                deep = d[y] == 0
                if not (type3 or deep):
                    continue
                for z in nbrs[y]:
                    if z == a1 or z == x:
                        continue
                    if type3 and z > a1:
                        paths.setdefault(z, []).append((x, y))
                    if not deep or z in around_a1 or (d[x] != 1 and d[z] != 1):
                        continue
                    # Excluding the neighbors of x also excludes a1 and y.
                    for w in nbrs[z]:
                        if w > a1 and w != x and w not in around_x:
                            paths.setdefault(w, []).append((x, y, z))
        cap = MAX_PATHS_PER_PAIR
        found = self._found[a1] = {}
        for a2 in sorted(paths):
            ordered = sorted(paths[a2], key=len)
            found[a2] = ordered[:cap]
            self.cut |= len(ordered) > cap
        return found

    def regions(self, a1: int, a2: int) -> list[CandidateRegion]:
        """The pair's inclusion-maximal candidate regions, in order of sorted
        closed vertex set, then sorted interior.

        Every internally disjoint pair of the pair's typed paths closes into
        a simple cycle; each side of that cycle qualifies when the anchors
        dominate all of its strictly interior vertices.  Among qualifying
        regions only those whose closed vertex set is not strictly
        contained in another's survive.  A pair with fewer than two typed
        paths under the cap closes no cycle, has none and is not walked.
        Otherwise the pair's maximal sides are walked once and kept, and
        each call builds its regions from them.

        An anchor that is not a vertex raises ``UnknownVertexError``, and
        then a pair without ``a1 < a2`` raises ``MalformedPathError``.
        """
        for a in (a1, a2):
            if not self.instance.has_vertex(a):
                raise UnknownVertexError(f"unknown vertex {a}")
        if not a1 < a2:
            raise MalformedPathError(f"anchor pair ({a1}, {a2}) is not ordered a1 < a2")
        sides = self._sides.get((a1, a2))
        if sides is None:
            interiors = self.typed_paths(a1).get(a2, [])
            if len(interiors) < 2:
                return []
            sides = self._sides[a1, a2] = _maximal_sides(self.instance, self.rs, a1, a2, interiors)
        adj = self.instance._adj
        out = []
        for closed, inside, high_boundary in sorted(
            sides, key=lambda side: (sorted(side[0]), sorted(side[1]))
        ):
            boundary = closed - inside
            internal_boundary = boundary - {a1, a2}
            fringe = frozenset(v for v in inside if adj[v] & internal_boundary)
            crosslinks = frozenset(v for v in closed if len(adj[v] & high_boundary) >= 2)
            out.append(CandidateRegion(
                a1, a2, boundary, inside, high_boundary, fringe, inside - fringe, crosslinks,
            ))
        return out

    def region_sizes(self) -> list[int]:
        """The interior sizes of the regions of every pair that
        :meth:`typed_paths` finds from any vertex, in no fixed order: the
        sizes of the maximal sides of each pair with at least two typed
        paths under the cap.  A pair :meth:`regions` walked reads its kept
        sides; any other is walked and not kept.  No region is built.
        """
        sizes = []
        for a1 in self.instance.vertices:
            for a2, interiors in self.typed_paths(a1).items():
                if len(interiors) < 2:
                    continue
                sides = self._sides.get((a1, a2))
                if sides is None:
                    sides = _maximal_sides(self.instance, self.rs, a1, a2, interiors)
                sizes.extend(len(inside) for _, inside, _ in sides)
        return sizes

    def may_color(self, a1: int, a2: int) -> bool:
        """Whether some region of the pair could have a core vertex of
        positive demand: a vertex ``w`` off the anchors with demand at least
        one such that ``w`` and each of its neighbors off the anchors have
        demand at most their number of adjacent anchors.

        Only the graph and demands are read, not the typed paths, so a pair
        that fails needs no region built to know that rules 6-8 color
        nothing in it; :func:`vecdom.rules._region_phase` gives the proof.
        An anchor that is not a vertex raises ``UnknownVertexError``.
        """
        for a in (a1, a2):
            if not self.instance.has_vertex(a):
                raise UnknownVertexError(f"unknown vertex {a}")
        d = self.instance.demand
        by_demand = self._by_demand
        if by_demand is None:
            # Per vertex: its neighbors of demand 1, of demand 2, and of
            # positive demand.
            by_demand = self._by_demand = {
                v: (
                    {x for x in nbrs if d[x] == 1},
                    {x for x in nbrs if d[x] == 2},
                    [x for x in nbrs if d[x]],
                )
                for v, nbrs in self.rs.adjacency.items()
            }
        ones1, twos1, _ = by_demand[a1]
        ones2, twos2, _ = by_demand[a2]
        around1, around2 = self.instance._adj[a1], self.instance._adj[a2]
        # The candidates for w: demand 1 next to an anchor, demand 2 next to both.
        for w in ones1 | ones2 | (twos1 & twos2):
            if w == a1 or w == a2:
                continue
            for x in by_demand[w][2]:
                if x != a1 and x != a2 and d[x] > (x in around1) + (x in around2):
                    break
            else:
                return True
        return False


def _maximal_sides(instance, rs, a1, a2, interiors) -> list[tuple[frozenset, ...]]:
    """The pair's inclusion-maximal qualifying sides, unsorted, as
    ``(closed, inside, high_boundary)``: the side's closed vertex set, its
    strictly interior vertices and its internal boundary vertices of demand
    at least two.

    Every internally disjoint pair of ``interiors`` closes a cycle whose
    sides ``cycle_sides`` finds; a side qualifies when the anchors dominate
    its interior.  A maximal side with more than two high-demand boundary
    vertices would break the typed-path bound and raises ``AssertionError``.
    """
    adj = instance._adj
    d = instance.demand
    anchors = {a1, a2}
    around1, around2 = adj[a1], adj[a2]

    def keep(w):
        return d[w] <= (w in around1) + (w in around2)

    sides = set()
    for i, pi in enumerate(interiors):
        set_i = set(pi)
        for pj in interiors[i + 1:]:
            if not set_i.isdisjoint(pj):
                continue
            cycle = (a1, *pi, a2, *reversed(pj))
            for inside in cycle_sides(rs, cycle, keep):
                if inside is not None:
                    sides.add((frozenset(cycle) | inside, inside))
    out = []
    for closed, inside in sides:
        if any(closed < other for other, _ in sides):
            continue
        high_boundary = frozenset(v for v in closed - inside - anchors if d[v] >= 2)
        if len(high_boundary) > 2:
            raise AssertionError("typed boundary admits at most two high-demand vertices")
        out.append((closed, inside, high_boundary))
    return out


def _color_unless(
    instance: AnnotatedInstance, region: CandidateRegion, rule_id: int, exempt
) -> list[ReductionEvent]:
    """The interior scan of rules 6-8, with the conditions they share: color,
    in id order, every interior vertex not yet blue, unless it alone
    satisfies the core or the rule's ``exempt`` spares it.  An empty core
    colors nothing, nor does a forbidden anchor or high-demand boundary
    vertex: the coloring arguments swap solution vertices for those."""
    forbidden = instance.forbidden
    core = region.core
    if not core or forbidden & {region.a1, region.a2, *region.high_boundary}:
        return []
    events = []
    for v in sorted(region.interior):
        if v not in forbidden and not dominates(instance, {v}, core) and not exempt(v):
            event = ReductionEvent(rule_id=rule_id, newly_blue=frozenset({v}))
            events.append(apply(instance, event))
    return events


def _around(adj, vertices) -> set[int]:
    """The union of the neighborhoods of ``vertices``, as a new set."""
    out = set()
    for y in vertices:
        out |= adj[y]
    return out


def rule6(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Color interior vertices that neither reach the high-demand boundary nor
    could alone satisfy the core.

    Like rules 7 and 8, this scans the interior with ``_color_unless`` and
    reads the vertex classes stored on ``region``, so the region must have
    been built on the instance's current graph and demands; only the
    forbidden set may have changed since.
    """
    adj = instance._adj
    return _color_unless(instance, region, 6, lambda u: adj[u] & region.high_boundary)


def rule7(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Coloring rule for regions that have crosslinked boundary vertices.

    The ``_color_unless`` scan colors every interior vertex except those
    that satisfy the core alone and those that are crosslinks or can
    cover the core (or an anchor's share of it) together with one
    suitable partner.  The region must have been built on the instance's
    current graph and demands.
    """
    if not region.crosslinks:
        return []
    adj = instance._adj
    near_high = _around(adj, region.high_boundary)
    core_a1 = region.core & adj[region.a1]
    core_a2 = region.core & adj[region.a2]

    def exempt(w):
        return (
            w in region.crosslinks
            or any(dominates(instance, {w, w2}, region.core) for w2 in near_high)
            or any(
                dominates(instance, {w, w2}, core_a1) or dominates(instance, {w, w2}, core_a2)
                for w2 in region.crosslinks
            )
        )

    return _color_unless(instance, region, 7, exempt)


def rule8(instance: AnnotatedInstance, region: CandidateRegion) -> list[ReductionEvent]:
    """Coloring rule for regions without crosslinks.

    The ``_color_unless`` scan colors every interior vertex except those
    that satisfy the core alone; those covering the core with a partner
    drawn from around an adjacent high-demand boundary vertex; and, when
    the high-demand boundary hangs off one anchor, those covering the rest
    of the core with a partner from around the high-demand boundary.  The
    region must have been built on the instance's current graph and
    demands.
    """
    if region.crosslinks:
        return []
    adj = instance._adj
    near_high = _around(adj, region.high_boundary)

    def exempt(u):
        partners = _around(adj, adj[u] & region.high_boundary)
        if any(dominates(instance, {u, u2}, region.core) for u2 in partners):
            return True
        for anchor in (region.a1, region.a2):
            if region.high_boundary <= adj[anchor]:
                rest = region.core - adj[anchor]
                if any(dominates(instance, {u, u2}, rest) for u2 in near_high):
                    return True
        return False

    return _color_unless(instance, region, 8, exempt)
