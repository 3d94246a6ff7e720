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
    rest = [v for v in instance.vertex_set() if v not in chosen]
    return dominates(instance, chosen, rest)


def solve_bb(instance: AnnotatedInstance, node_budget: int | None = None) -> SolveResult:
    """Decide by branch and bound; same answer contract as ``solve_brute``.

    Branching picks the unsatisfied vertex with the fewest remaining ways
    to satisfy it, then tries the vertex itself followed by each eligible
    neighbor, excluding already-tried candidates from later branches.
    Pruning uses the exact budget plus a degree-style lower bound: one
    added vertex can discharge at most its own residual demand plus one
    unit per unsatisfied neighbor.

    The search runs on the vertices relabelled 0..n-1 in id order, so
    ties and candidate order are those of the ids.  It keeps its state
    incrementally instead of recomputing it at every node: each vertex's
    residual demand (its demand minus its chosen neighbors), whether it
    is unsatisfied (not chosen, residual demand positive), and how many
    of its neighbors are unsatisfied and how many are still selectable
    (neither chosen nor banned), plus the unsatisfied count.  Choosing a
    candidate and banning a tried one update these along the candidate's
    adjacency, and backtracking undoes the update exactly.  A node costs
    one pass over the vertices; the search tree, node count and witness
    are those of a search that recomputes everything at each node.
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
    unsat = [False] * n
    n_unsat = 0
    n_unsat_nbrs = [0] * n
    n_selectable_nbrs = [len(nbrs) for nbrs in adj]
    stack: list[int] = []

    def leave_unsat(v: int) -> None:
        nonlocal n_unsat
        unsat[v] = False
        n_unsat -= 1
        for u in adj[v]:
            n_unsat_nbrs[u] -= 1

    def enter_unsat(v: int) -> None:
        nonlocal n_unsat
        unsat[v] = True
        n_unsat += 1
        for u in adj[v]:
            n_unsat_nbrs[u] += 1

    def choose(c: int) -> None:
        chosen[c] = True
        stack.append(c)
        if unsat[c]:
            leave_unsat(c)
        for u in adj[c]:
            n_selectable_nbrs[u] -= 1
            res[u] -= 1
            if unsat[u] and not res[u]:
                leave_unsat(u)

    def unchoose(c: int) -> None:
        for u in adj[c]:
            n_selectable_nbrs[u] += 1
            res[u] += 1
            if res[u] == 1 and not chosen[u]:
                enter_unsat(u)
        chosen[c] = False
        stack.pop()
        if res[c] > 0:
            enter_unsat(c)

    def set_banned(c: int, value: bool) -> None:
        banned[c] = value
        step = -1 if value else 1
        for u in adj[c]:
            n_selectable_nbrs[u] += step

    for v, vid in enumerate(ids):
        if vid in instance.forbidden:
            set_banned(v, True)
        if res[v] > 0:
            enter_unsat(v)

    def search() -> frozenset[int] | None:
        tick()
        if not n_unsat:
            return frozenset(ids[c] for c in stack)
        remaining = budget - len(stack)
        if remaining <= 0:
            return None

        # Feasibility, branching choice, total residual demand and the
        # best single gain in one pass.  The branch key (fewest ways to
        # satisfy, then smallest vertex) is packed into one integer,
        # slack * n + v.
        branch_key = None
        deficit = 0
        best_gain = 0
        for v in range(n):
            if chosen[v]:
                continue
            if unsat[v]:
                r = res[v]
                deficit += r
                options = n_selectable_nbrs[v]
                if banned[v]:
                    if options < r:
                        return None
                    key = (options - r) * n + v
                else:
                    key = (options + 1 - r) * n + v
                    if r + n_unsat_nbrs[v] > best_gain:
                        best_gain = r + n_unsat_nbrs[v]
                if branch_key is None or key < branch_key:
                    branch_key = key
            elif not banned[v] and n_unsat_nbrs[v] > best_gain:
                best_gain = n_unsat_nbrs[v]
        if best_gain == 0:
            return None
        if (deficit + best_gain - 1) // best_gain > remaining:
            return None

        branch_v = branch_key % n
        candidates = ([branch_v] if not banned[branch_v] else []) + [
            u for u in adj[branch_v] if not chosen[u] and not banned[u]
        ]
        tried: list[int] = []
        answer = None
        for c in candidates:
            choose(c)
            answer = search()
            unchoose(c)
            if answer is not None:
                break
            set_banned(c, True)
            tried.append(c)
        for c in tried:
            set_banned(c, False)
        return answer

    witness = search()
    return SolveResult(witness is not None, witness, nodes)
