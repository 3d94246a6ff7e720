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
    """
    adj = instance._adj
    demand = instance.demand
    vertices = sorted(adj)
    budget = instance.budget
    counter = [0]

    def tick() -> None:
        counter[0] += 1
        if node_budget is not None and counter[0] > node_budget:
            raise NodeBudgetError(f"exceeded node budget {node_budget}")

    if budget < 0:
        tick()
        return SolveResult(False, None, counter[0])

    chosen: set[int] = set()
    banned: set[int] = set(instance.forbidden)

    def residual(v: int) -> int:
        return demand[v] - len(adj[v] & chosen)

    def search() -> frozenset[int] | None:
        tick()
        unsat = [v for v in vertices if v not in chosen and residual(v) > 0]
        if not unsat:
            return frozenset(chosen)
        remaining = budget - len(chosen)
        if remaining <= 0:
            return None

        # Feasibility and branching choice in one pass.
        branch_v = None
        branch_key = None
        for v in unsat:
            options = [u for u in adj[v] if u not in chosen and u not in banned]
            selectable = v not in banned
            if not selectable and len(options) < residual(v):
                return None
            key = (len(options) + (1 if selectable else 0) - residual(v), v)
            if branch_key is None or key < branch_key:
                branch_key = key
                branch_v = v

        deficit = sum(residual(v) for v in unsat)
        unsat_set = set(unsat)
        best_gain = 0
        for c in vertices:
            if c in chosen or c in banned:
                continue
            gain = (residual(c) if c in unsat_set else 0) + len(adj[c] & unsat_set)
            if gain > best_gain:
                best_gain = gain
        if best_gain == 0:
            return None
        if (deficit + best_gain - 1) // best_gain > remaining:
            return None

        candidates = ([branch_v] if branch_v not in banned else []) + sorted(
            u for u in adj[branch_v] if u not in chosen and u not in banned
        )
        tried: list[int] = []
        answer = None
        for c in candidates:
            chosen.add(c)
            answer = search()
            chosen.discard(c)
            if answer is not None:
                break
            banned.add(c)
            tried.append(c)
        for c in tried:
            banned.discard(c)
        return answer

    witness = search()
    return SolveResult(witness is not None, witness, counter[0])
