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


# The largest n that ``solve_brute`` enumerates by default.
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


def _is_solution(instance: AnnotatedInstance, chosen: set[int]) -> bool:
    adj = instance._adj
    demand = instance.demand
    for v, d in demand.items():
        if d and v not in chosen and len(adj[v] & chosen) < d:
            return False
    return True


def solve_brute(instance: AnnotatedInstance, oracle_limit: int = ORACLE_LIMIT) -> SolveResult:
    """Decide by exhaustive enumeration of selectable subsets, smallest first.

    Deterministic: vertices are scanned in id order, so the witness for a
    YES instance is the lexicographically first one of minimum size.
    """
    if instance.n > oracle_limit:
        raise OracleLimitError(f"n={instance.n} exceeds the oracle limit {oracle_limit}")
    eligible = sorted(set(instance.vertex_set()) - instance.forbidden)
    nodes = 0
    if instance.budget >= 0:
        top = min(instance.budget, len(eligible))
        for size in range(top + 1):
            for combo in itertools.combinations(eligible, size):
                nodes += 1
                chosen = set(combo)
                if _is_solution(instance, chosen):
                    return SolveResult(True, frozenset(chosen), nodes)
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


def solve_bb(instance: AnnotatedInstance, node_budget: int | None = None) -> SolveResult:
    """Decide by branch and bound; same answer contract as ``solve_brute``.

    Branching picks the unsatisfied vertex with the fewest remaining ways
    to satisfy it, then tries the vertex itself followed by each eligible
    neighbor, excluding already-tried candidates from later branches.
    Pruning uses the exact budget and two lower bounds on the vertices
    still to add.  The degree bound: one added vertex can discharge at
    most its own residual demand plus one unit per unsatisfied neighbor.
    Where that does not prune, a greedy dual bound: a feasible solution
    of the dual of the residual LP (one covering row per unsatisfied
    vertex, ``x >= 0`` without the ``x <= 1`` caps), built in one pass
    over the unsatisfied vertices in branch-key order.  By weak duality
    its value is at most the LP optimum, hence at most the number of
    vertices any completion adds.  It is computed in integers scaled by
    ``DUAL_SCALE``, flooring each dual value; flooring only lowers a
    value, so the dual stays feasible and the bound valid for any
    positive scale.  Pruning removes only subtrees without a solution,
    so the answers are those of the search without the bounds.

    At the root, once the bounds leave candidates to branch on, one
    greedy cover is tried first: Chvátal's set-cover greedy on the gains
    of the degree bound, then a pass that drops picks the others cover.
    If it needs at most ``budget`` vertices, it is the witness and the
    root, node 1, decides YES.  Otherwise the search runs as it would
    without it, so a NO explores the same nodes, and a YES found by the
    search has the witness the search finds.

    The search runs on the vertices relabelled 0..n-1 in id order, so
    ties and candidate order are those of the ids.  It keeps its state
    incrementally instead of recomputing it at every node: whether each
    vertex is chosen or banned, its residual demand (its demand minus its
    chosen neighbors), how many of its neighbors are unsatisfied (not
    chosen, residual demand positive) and how many are still selectable
    (neither chosen nor banned), plus the unsatisfied count.  Choosing a candidate and banning a tried one
    update these along the candidate's adjacency, and backtracking
    undoes the update exactly.  A node costs one pass over the vertices
    and one over the unsatisfied ones.  The search is depth first on an
    explicit stack of frames, one per chosen vertex, so a node's depth
    is the frame count and is not bounded by Python's recursion limit.
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

    ids = sorted(instance._adj)
    n = len(ids)
    index = {v: i for i, v in enumerate(ids)}
    adj = [sorted(map(index.__getitem__, instance._adj[v])) for v in ids]
    res = [instance.demand[v] for v in ids]
    # The state of an empty choice with nothing banned and nothing
    # unsatisfied; the forbidden and demanding vertices enter it below,
    # through the same updates the search makes.
    chosen = [False] * n
    banned = [False] * n
    n_unsat = 0
    unsat_around = [0] * n
    selectable_around = [len(around) for around in adj]

    def leave_unsat(v: int) -> None:
        nonlocal n_unsat
        n_unsat -= 1
        for u in adj[v]:
            unsat_around[u] -= 1

    def enter_unsat(v: int) -> None:
        nonlocal n_unsat
        n_unsat += 1
        for u in adj[v]:
            unsat_around[u] += 1

    def choose(c: int) -> None:
        chosen[c] = True
        if res[c] > 0:
            leave_unsat(c)
        for u in adj[c]:
            selectable_around[u] -= 1
            res[u] -= 1
            if not res[u] and not chosen[u]:
                leave_unsat(u)

    def unchoose(c: int) -> None:
        for u in adj[c]:
            selectable_around[u] += 1
            res[u] += 1
            if res[u] == 1 and not chosen[u]:
                enter_unsat(u)
        chosen[c] = False
        if res[c] > 0:
            enter_unsat(c)

    def set_banned(c: int, value: bool) -> None:
        banned[c] = value
        step = -1 if value else 1
        for u in adj[c]:
            selectable_around[u] += step

    for v, vid in enumerate(ids):
        if vid in instance.forbidden:
            set_banned(v, True)
        if res[v] > 0:
            enter_unsat(v)

    def dual_bound_exceeds(order: list[int], remaining: int) -> bool:
        """Whether the greedy dual bound exceeds ``remaining``.

        The residual LP has a row ``res[v] * x_v + sum(x_u for selectable
        u in N(v)) >= res[v]`` per unsatisfied vertex v, the ``x_v`` term
        only if v is selectable.  In its dual, each selectable vertex's
        column has a slack of ``DUAL_SCALE`` to share among the ``y`` of
        the rows it appears in, ``res[v]`` times over in its own row.
        Each unsatisfied vertex in ``order`` raises its ``y_v`` as far as
        the least slack left in those columns allows.  A banned v has at
        least one selectable neighbor, whose slack caps ``y_v``.
        """
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

    def branch() -> list[int]:
        """The candidates to branch on at the current node, or [] when
        the node is infeasible or pruned."""
        remaining = budget - len(frames)
        if remaining <= 0:
            return []

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
        if dual_bound_exceeds(keys, remaining):
            return []

        branch_v = keys[0] % n
        return ([branch_v] if not banned[branch_v] else []) + [
            u for u in adj[branch_v] if not chosen[u] and not banned[u]
        ]

    def greedy_cover() -> set[int] | None:
        """A cover of at most ``budget`` vertices found without search at
        the root, or None.

        Chooses the selectable vertex of largest gain (``branch``'s gain:
        its residual demand if unsatisfied, plus its unsatisfied
        neighbors; ties to the smallest vertex) until every demand is met
        or ``budget + 1`` vertices are chosen.  ``branch`` found the root
        feasible, so while a demand is unmet some selectable vertex has a
        positive gain.  A met cover then ``unchoose``s each pick, largest
        vertex first, that the other picks cover: one whose own residual
        demand is not positive and whose every unchosen neighbor has a
        unit to spare (a negative residual demand).  The kept picks are
        then undone too, which restores the root's state exactly, since
        the state depends only on the chosen and banned sets.
        """
        cover: list[int] = []
        while n_unsat and len(cover) <= budget:
            best, best_gain = 0, 0
            for v in range(n):
                if chosen[v] or banned[v]:
                    continue
                gain = unsat_around[v] + res[v] if res[v] > 0 else unsat_around[v]
                if gain > best_gain:
                    best, best_gain = v, gain
            choose(best)
            cover.append(best)
        met = not n_unsat
        if met:
            for c in sorted(cover, reverse=True):
                if res[c] <= 0 and all(chosen[u] or res[u] < 0 for u in adj[c]):
                    unchoose(c)
        kept = {c for c in cover if chosen[c]}
        for c in kept:
            unchoose(c)
        return kept if met and len(kept) <= budget else None

    # The search stack: one frame per chosen vertex, holding the node's
    # candidates and the index of the one chosen now.  The candidates
    # before that index are banned in the subtree below it.
    frames: list[list] = []
    while True:
        tick()
        if not n_unsat:
            return SolveResult(True, frozenset(ids[c[i]] for c, i in frames), nodes)
        candidates = branch()
        if candidates:
            if not frames:
                # The root, the only node without a frame: a greedy
                # cover within the budget decides YES here.
                cover = greedy_cover()
                if cover is not None:
                    return SolveResult(True, frozenset(ids[c] for c in cover), nodes)
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
