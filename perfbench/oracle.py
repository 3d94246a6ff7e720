"""Independent answer oracle: the optimum of each instance by integer programming.

Vector domination as a 0/1 program: minimise sum(x) subject to
``d(v) * x_v + sum(x_u for u in N(v)) >= d(v)`` for every vertex with
demand, and ``x_v = 0`` for forbidden vertices.  An instance with budget
k is YES exactly when the optimum is at most k.  HiGHS decides it through
``scipy.optimize.milp``; no vecdom code is involved.

It runs as a child process so that neither scipy's import time nor its
memory lands in the benchmark's own measurements:

    python3 perfbench/oracle.py < paths.json    # prints {"path": optimum, ...}
"""

from __future__ import annotations

import json
import sys

from instances import Graph, read_pvds


def optimum(graph: Graph) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    rows, cols, vals, lower = [], [], [], []
    adj = graph.neighbors()
    for v, d in enumerate(graph.demand):
        if not d:
            continue
        r = len(lower)
        rows.append(r), cols.append(v), vals.append(d)
        for u in adj[v]:
            rows.append(r), cols.append(u), vals.append(1)
        lower.append(d)
    if not lower:
        return 0
    upper = np.ones(graph.n)
    upper[list(graph.forbidden)] = 0
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lower), graph.n)).tocsr()
    res = milp(
        np.ones(graph.n),
        constraints=[LinearConstraint(matrix, lower, np.inf)],
        integrality=np.ones(graph.n),
        bounds=Bounds(0, upper),
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove an optimum: {res.message}")
    return int(round(res.fun))


def main() -> int:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        print("oracle: scipy is required for the answer check and is not installed", file=sys.stderr)
        return 3
    paths = json.load(sys.stdin)
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            graph, _ = read_pvds(fh.read())
        out[path] = optimum(graph)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
