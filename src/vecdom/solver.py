"""Exact deciders for annotated vector domination.

``solve_brute`` enumerates candidate sets outright and serves as the
independent oracle in every soundness test.  ``solve_bb`` is a
branch-and-bound solver for day-to-day use on kernels; it must always
agree with the oracle.  Both ignore the instance's status field and decide
the question posed by the current graph, demands, budget and forbidden
set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instance import AnnotatedInstance, UnknownVertexError, VecdomError, dominates


# The largest n that ``solve_brute`` enumerates.
ORACLE_LIMIT = 18


# The scale of solve_bb's dual bound: each selectable vertex's dual
# constraint holds DUAL_SCALE units.  Any positive value keeps the bound
# valid; one with many small divisors floors less.
DUAL_SCALE = 720720


class OracleLimitError(VecdomError):
    pass


class NodeBudgetError(VecdomError):
    pass


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    witness: frozenset[int] | None
    nodes_explored: int

    def __repr__(self) -> str:
        tag = "YES" if self.answer else "NO"
        return f"SolveResult({tag}, witness={self.witness}, nodes={self.nodes_explored})"


def solve_brute(instance: AnnotatedInstance) -> SolveResult:
    """Decide by exhaustive enumeration of selectable subsets, smallest first.

    An instance with more than ``ORACLE_LIMIT`` vertices raises
    ``OracleLimitError``; the limit is read from the module on each call.

    Deterministic: vertices are scanned in id order, so the witness for a
    YES instance is the lexicographically first one of minimum size.

    Each vertex has one bit, and each candidate set is the sum of its
    vertices' bits.  A set is a solution when every vertex with demand is
    in it or has at least its demand of neighbor bits set in it, which is
    ``dominates`` on bitmasks.  A YES witness is confirmed with
    ``dominates`` itself before it is returned; the two disagreeing
    raises ``AssertionError``.
    """
    if instance.n > ORACLE_LIMIT:
        raise OracleLimitError(f"n={instance.n} exceeds the oracle limit {ORACLE_LIMIT}")
    adj, demand = instance._adj, instance.demand
    ids = list(adj)
    bit = {v: 1 << i for i, v in enumerate(ids)}
    # (its bit, its neighbors' bits, its demand) per vertex with demand.
    needs = [(bit[v], sum(bit[u] for u in adj[v]), demand[v]) for v in ids if demand[v]]
    eligible = [v for v in ids if v not in instance.forbidden]
    eligible_bits = [bit[v] for v in eligible]
    nodes = 0
    if instance.budget >= 0:
        top = min(instance.budget, len(eligible))
        for size in range(top + 1):
            for combo in itertools.combinations(eligible_bits, size):
                nodes += 1
                chosen = sum(combo)
                for own, around, need in needs:
                    if not chosen & own and (around & chosen).bit_count() < need:
                        break
                else:
                    witness = frozenset(v for v in eligible if chosen & bit[v])
                    if not dominates(instance, witness, instance.vertex_set()):
                        raise AssertionError(
                            f"bitmask check accepts {sorted(witness)}, dominates refuses it"
                        )
                    return SolveResult(True, witness, nodes)
    return SolveResult(False, None, nodes)


def verify_solution(instance: AnnotatedInstance, chosen) -> bool:
    """Check a proposed witness: selectable, within budget, and dominating."""
    chosen = set(chosen)
    for v in chosen:
        if not instance.has_vertex(v):
            raise UnknownVertexError(f"unknown vertex {v}")
    if chosen & instance.forbidden:
        return False
    if len(chosen) > instance.budget:
        return False
    return dominates(instance, chosen, instance.vertex_set())


class _Search:
    """The state of ``solve_bb``'s search and the moves that change it.

    The search runs on the vertices relabelled 0..n-1 in id order, so
    ties and candidate order are those of the ids.  It keeps its state
    incrementally instead of recomputing it at every node: whether each
    vertex is chosen or banned, its residual demand (its demand minus its
    chosen neighbors), how many of its neighbors are unsatisfied (not
    chosen, residual demand positive) and how many are still selectable
    (neither chosen nor banned), plus the unsatisfied count.  It depends
    only on the chosen and banned sets.  ``choose`` and ``set_banned``
    update it along one adjacency; ``unchoose`` and ``set_banned(c,
    False)`` undo them exactly.  A node costs one pass over the vertices
    and one over the unsatisfied ones.
    """

    def __init__(self, instance: AnnotatedInstance) -> None:
        self.ids = ids = list(instance._adj)
        self.n = n = len(ids)
        index = {v: i for i, v in enumerate(ids)}
        self.adj = adj = [sorted(map(index.__getitem__, instance._adj[v])) for v in ids]
        self.res = res = [instance.demand[v] for v in ids]
        # The state of an empty choice with nothing banned and nothing
        # unsatisfied; the forbidden and demanding vertices enter it below,
        # through the same updates the search makes.
        self.chosen = [False] * n
        self.banned = [False] * n
        self.n_unsat = 0
        self.unsat_around = [0] * n
        self.selectable_around = [len(around) for around in adj]
        for v, vid in enumerate(ids):
            if vid in instance.forbidden:
                self.set_banned(v, True)
            if res[v] > 0:
                self._shift_unsat(v, 1)

    def _shift_unsat(self, v: int, step: int) -> None:
        """Count ``v`` in (step 1) or out of (step -1) the unsatisfied."""
        self.n_unsat += step
        unsat_around = self.unsat_around
        for u in self.adj[v]:
            unsat_around[u] += step

    def choose(self, c: int) -> None:
        chosen, res, selectable_around = self.chosen, self.res, self.selectable_around
        chosen[c] = True
        if res[c] > 0:
            self._shift_unsat(c, -1)
        for u in self.adj[c]:
            selectable_around[u] -= 1
            res[u] -= 1
            if not res[u] and not chosen[u]:
                self._shift_unsat(u, -1)

    def unchoose(self, c: int) -> None:
        chosen, res, selectable_around = self.chosen, self.res, self.selectable_around
        for u in self.adj[c]:
            selectable_around[u] += 1
            res[u] += 1
            if res[u] == 1 and not chosen[u]:
                self._shift_unsat(u, 1)
        chosen[c] = False
        if res[c] > 0:
            self._shift_unsat(c, 1)

    def set_banned(self, c: int, value: bool) -> None:
        self.banned[c] = value
        step = -1 if value else 1
        selectable_around = self.selectable_around
        for u in self.adj[c]:
            selectable_around[u] += step

    def dual_bound_exceeds(self, order: list[int], remaining: int) -> bool:
        """Whether the greedy dual bound exceeds ``remaining``.

        The residual LP has a row ``res[v] * x_v + sum(x_u for selectable
        u in N(v)) >= res[v]`` per unsatisfied vertex v, the ``x_v`` term
        only if v is selectable, and ``x >= 0`` without the ``x <= 1``
        caps.  In its dual, each selectable vertex's column has a slack
        of ``DUAL_SCALE`` to share among the ``y`` of the rows it appears
        in, ``res[v]`` times over in its own row.  Each unsatisfied
        vertex in ``order`` raises its ``y_v`` as far as the least slack
        left in those columns allows; a banned v has at least one
        selectable neighbor, whose slack caps ``y_v``.  By weak duality
        this feasible dual's value is at most the LP optimum, hence at
        most the number of vertices any completion adds.  Flooring each
        ``y_v`` only lowers it, so the dual stays feasible and the bound
        valid for any positive scale.
        """
        n, adj, res, chosen, banned = self.n, self.adj, self.res, self.chosen, self.banned
        slack = [DUAL_SCALE] * n
        limit = remaining * DUAL_SCALE
        total = 0
        for key in order:
            v = key % n
            r = res[v]
            y = DUAL_SCALE if banned[v] else slack[v] // r
            for u in adj[v]:
                if slack[u] < y and not chosen[u] and not banned[u]:
                    y = slack[u]
            if not y:
                continue
            total += r * y
            if total > limit:
                return True
            if not banned[v]:
                slack[v] -= r * y
            for u in adj[v]:
                if not chosen[u] and not banned[u]:
                    slack[u] -= y
        return False

    def branch(self, remaining: int) -> list[int]:
        """The candidates at a node that may still add ``remaining``
        vertices, or [] when the node is infeasible or pruned: the
        unsatisfied vertex with the fewest ways left to satisfy it, if
        selectable, then its selectable neighbors.  Pruning uses two lower
        bounds on the vertices still to add: the degree bound (one added
        vertex discharges at most its own residual demand plus one unit
        per unsatisfied neighbor) and, where that does not prune,
        ``dual_bound_exceeds``.
        """
        if remaining <= 0:
            return []
        n, adj, res, chosen, banned = self.n, self.adj, self.res, self.chosen, self.banned
        selectable_around, unsat_around = self.selectable_around, self.unsat_around
        # Feasibility, the branch keys, total residual demand and the
        # best single gain in one pass.  The branch key (fewest options
        # to spare, then smallest vertex) is packed into one integer,
        # spare * n + v.
        keys = []
        deficit = 0
        best_gain = 0
        for v in range(n):
            if chosen[v]:
                continue
            r = res[v]
            if r > 0:
                deficit += r
                options = selectable_around[v]
                if banned[v]:
                    if options < r:
                        return []
                    keys.append((options - r) * n + v)
                else:
                    keys.append((options + 1 - r) * n + v)
                    if r + unsat_around[v] > best_gain:
                        best_gain = r + unsat_around[v]
            elif not banned[v] and unsat_around[v] > best_gain:
                best_gain = unsat_around[v]
        # best_gain > 0: each unsatisfied v is selectable or has a selectable neighbor.
        if (deficit + best_gain - 1) // best_gain > remaining:
            return []
        keys.sort()
        if self.dual_bound_exceeds(keys, remaining):
            return []

        branch_v = keys[0] % n
        return ([branch_v] if not banned[branch_v] else []) + [
            u for u in adj[branch_v] if not chosen[u] and not banned[u]
        ]

    def greedy_cover(self, budget: int) -> set[int] | None:
        """A cover of at most ``budget`` vertices found without search, or None.

        Chooses the selectable vertex of largest gain (``branch``'s gain:
        its residual demand if unsatisfied, plus its unsatisfied
        neighbors; ties to the smallest vertex) until every demand is met
        or ``budget + 1`` vertices are chosen.  ``branch`` found the node
        feasible, so while a demand is unmet some selectable vertex has a
        positive gain.  A met cover then ``unchoose``s each pick, largest
        vertex first, that the other picks cover: one whose own residual
        demand is not positive and whose every unchosen neighbor has a
        unit to spare (a negative residual demand).  The kept picks are
        then undone too, which restores the state exactly, since the
        state depends only on the chosen and banned sets.
        """
        n, adj, res, chosen, banned = self.n, self.adj, self.res, self.chosen, self.banned
        unsat_around = self.unsat_around
        cover: list[int] = []
        while self.n_unsat and len(cover) <= budget:
            best, best_gain = 0, 0
            for v in range(n):
                if chosen[v] or banned[v]:
                    continue
                gain = unsat_around[v] + res[v] if res[v] > 0 else unsat_around[v]
                if gain > best_gain:
                    best, best_gain = v, gain
            self.choose(best)
            cover.append(best)
        met = not self.n_unsat
        if met:
            for c in sorted(cover, reverse=True):
                if res[c] <= 0 and all(chosen[u] or res[u] < 0 for u in adj[c]):
                    self.unchoose(c)
        kept = {c for c in cover if chosen[c]}
        for c in kept:
            self.unchoose(c)
        return kept if met and len(kept) <= budget else None


def solve_bb(instance: AnnotatedInstance, node_budget: int | None = None) -> SolveResult:
    """Decide by branch and bound; same answer contract as ``solve_brute``.

    The state, its moves and its bounds are a ``_Search``.  The search
    is depth first on an explicit stack of frames, one per chosen
    vertex, so a node's depth is the frame count and is not bounded by
    Python's recursion limit.  A node's candidates come from ``branch``
    given the budget left, and each candidate tried is banned in the
    later branches.  Pruning removes only subtrees without a solution,
    so the answers are those of the search without the bounds.  Each
    node counts against ``node_budget``.

    At the root, once the bounds leave candidates to branch on, one
    greedy cover is tried first: Chvátal's set-cover greedy on the gains
    of the degree bound, then a pass that drops picks the others cover.
    If it needs at most ``budget`` vertices, it is the witness and the
    root, node 1, decides YES.  Otherwise the search runs as it would
    without it, so a NO explores the same nodes, and a YES found by the
    search has the witness the search finds.
    """
    budget = instance.budget
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise NodeBudgetError(f"exceeded node budget {node_budget}")

    if budget < 0:
        tick()
        return SolveResult(False, None, nodes)

    search = _Search(instance)
    choose, unchoose, set_banned = search.choose, search.unchoose, search.set_banned
    # The search stack: one frame per chosen vertex, holding the node's
    # candidates and the index of the one chosen now.  The candidates
    # before that index are banned in the subtree below it.
    frames: list[list] = []
    while True:
        tick()
        if not search.n_unsat:
            return SolveResult(True, frozenset(search.ids[c[i]] for c, i in frames), nodes)
        candidates = search.branch(budget - len(frames))
        if candidates:
            if not frames:
                # The root, the only node without a frame: a greedy
                # cover within the budget decides YES here.
                cover = search.greedy_cover(budget)
                if cover is not None:
                    return SolveResult(True, frozenset(search.ids[c] for c in cover), nodes)
            frames.append([candidates, 0])
            choose(candidates[0])
            continue
        # A dead end: undo choices until a frame has a candidate left.
        while frames:
            frame = frames[-1]
            candidates, i = frame
            unchoose(candidates[i])
            set_banned(candidates[i], True)
            i += 1
            if i < len(candidates):
                frame[1] = i
                choose(candidates[i])
                break
            for c in candidates:
                set_banned(c, False)
            frames.pop()
        else:
            return SolveResult(False, None, nodes)
