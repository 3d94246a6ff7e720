"""Reach of ``solve_bb``: which inputs it decides within a node budget.

    python3 tools/solve_reach.py SRC

Imports ``vecdom`` from the source directory ``SRC`` (the ``src/`` of a
checkout) and prints one row per maximal planar ``pids`` graph,
``make_special_case(generate_planar(n, 1.0, 11), "pids")`` for n in
``SIZES``.  A row holds the optimum, found by integer programming, and
``solve_bb``'s answer and node count at k = opt - 1 and k = opt, on the
raw input and on its kernel (``run_fixpoint`` at that k).  ``budget``
marks a solve that exceeded ``NODE_BUDGET`` nodes.  Times are CPU
seconds, the kernel's including ``run_fixpoint``.  Every answer is
checked against the optimum and every YES witness is verified; the tool
exits 1 on a mismatch.

The optimum is ``optimum`` of ``perfbench/oracle.py``, the benchmark's
integer-programming oracle (HiGHS, from the ``bench`` extra).  That
module is imported only when an optimum is computed, so this module
imports only the standard library.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

NODE_BUDGET = 100_000
SIZES = (26, 40, 60, 80, 120)
GRAPH_SEED = 11
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def optimum(instance) -> int:
    """The fewest selectable vertices that meet every demand of ``instance``.

    ``optimum`` of ``perfbench/oracle.py`` on the instance relabelled
    0..n-1 in id order.  Raises ``RuntimeError`` when HiGHS proves no
    optimum, as for an instance that no selectable set satisfies.
    """
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    from instances import Graph
    from oracle import optimum as highs

    ids = instance.vertices
    index = {v: i for i, v in enumerate(ids)}
    return highs(Graph(
        len(ids),
        tuple((index[u], index[v]) for u, v in instance.edges()),
        tuple(instance.demand[v] for v in ids),
        frozenset(index[v] for v in instance.forbidden),
    ))


def reach_instance(vecdom, n: int):
    """The maximal planar ``pids`` graph of the row for ``n``."""
    return vecdom.make_special_case(vecdom.generate_planar(n, 1.0, GRAPH_SEED), "pids")


def solve(vecdom, instance, k: int, kernel: bool):
    """Run ``solve_bb`` within ``NODE_BUDGET`` on a copy of ``instance`` at
    budget ``k``, or on that copy's kernel.  Returns the instance solved
    and the result, or None for the result when the budget ran out."""
    solved = instance.copy()
    solved.budget = k
    if kernel:
        solved = vecdom.kernel_of(vecdom.run_fixpoint(solved))
    try:
        return solved, vecdom.solve_bb(solved, node_budget=NODE_BUDGET)
    except vecdom.NodeBudgetError:
        return solved, None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/solve_reach.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    import vecdom

    print(f"solve_bb within {NODE_BUDGET:,} nodes on g(n, 1.0, {GRAPH_SEED}), pids")
    print("| n (opt) | raw, k = opt-1 / opt | kernel, k = opt-1 / opt |")
    print("|---|---|---|")
    wrong = 0
    for n in SIZES:
        instance = reach_instance(vecdom, n)
        opt = optimum(instance)
        cells = []
        for kernel in (False, True):
            parts = []
            for k in (opt - 1, opt):
                start = time.process_time()
                solved, result = solve(vecdom, instance, k, kernel)
                seconds = time.process_time() - start
                if result is None:
                    parts.append(f"budget ({seconds:.1f} s)")
                    continue
                ok = result.answer == (opt <= k) and (
                    not result.answer or vecdom.verify_solution(solved, result.witness))
                wrong += not ok
                tag = ("YES" if result.answer else "NO") + ("" if ok else " WRONG")
                parts.append(f"{tag} {result.nodes_explored:,} ({seconds:.1f} s)")
            cells.append(" / ".join(parts))
        print(f"| {n} ({opt}) | {cells[0]} | {cells[1]} |", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
