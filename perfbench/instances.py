"""Frozen copies of the instance generator and the demand profiles.

The benchmark makes its inputs here rather than through
``vecdom.toolkit``, so that a change to ``generate_planar`` or
``make_special_case`` cannot silently change a workload.  Every file is
written in the canonical ``.pvds`` form and fingerprinted with sha256.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """A planar instance as plain data: vertices 0..n-1, sorted edges, demands."""

    n: int
    edges: tuple[tuple[int, int], ...]
    demand: tuple[int, ...]
    forbidden: frozenset[int] = frozenset()

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def face_split(n: int, density: float, seed: int) -> tuple[tuple[int, int], ...]:
    """Grow a triangulation by dropping each new vertex into a random face,
    then keep every edge independently with probability ``density``."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if n == 2:
        edges = [(0, 1)]
    elif n >= 3:
        edges = [(0, 1), (0, 2), (1, 2)]
        faces = [(0, 1, 2)]
        for w in range(3, n):
            a, b, c = faces.pop(rng.randrange(len(faces)))
            edges += [(a, w), (b, w), (c, w)]
            faces += [(a, b, w), (b, c, w), (a, c, w)]
    return tuple(e for e in sorted(edges) if rng.random() < density)


def with_demands(n: int, edges, profile: str, seed: int) -> Graph:
    """Attach demands: ``pids`` is ceil(degree / 2), ``r:<r>`` is uniform r,
    ``random:<m>`` is independent uniform in 0..m drawn in vertex order."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    name, _, arg = profile.partition(":")
    if name == "pids":
        demand = [(d + 1) // 2 for d in degree]
    elif name == "r":
        demand = [int(arg)] * n
    elif name == "random":
        rng = random.Random(seed)
        demand = [rng.randint(0, int(arg)) for _ in range(n)]
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return Graph(n, tuple(edges), tuple(demand))


def make(n: int, density: float, profile: str, seed: int) -> Graph:
    return with_demands(n, face_split(n, density, seed), profile, seed)


def pvds_text(graph: Graph, budget: int) -> str:
    """Canonical ``.pvds`` text: header, nonzero demands, sorted edges, 1-indexed."""
    lines = [f"p pvds {graph.n} {len(graph.edges)} {budget}"]
    lines += [f"d {v + 1} {d}" for v, d in enumerate(graph.demand) if d]
    lines += [f"e {u + 1} {v + 1}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"


def read_pvds(text: str) -> tuple[Graph, int]:
    """Parse the subset of ``.pvds`` the benchmark writes and the CLI emits."""
    n = budget = 0
    demand: dict[int, int] = {}
    forbidden: list[int] = []
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n, budget = int(parts[2]), int(parts[4])
        elif parts[0] == "d":
            demand[int(parts[1]) - 1] = int(parts[2])
        elif parts[0] == "f":
            forbidden.append(int(parts[1]) - 1)
        elif parts[0] == "e":
            u, v = sorted((int(parts[1]) - 1, int(parts[2]) - 1))
            edges.append((u, v))
    graph = Graph(n, tuple(sorted(edges)), tuple(demand.get(v, 0) for v in range(n)), frozenset(forbidden))
    return graph, budget


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_solution(graph: Graph, budget: int, chosen: set[int]) -> bool:
    """Independent witness check: selectable, within budget, and every vertex
    outside ``chosen`` has at least its demand's worth of neighbors inside it."""
    if len(chosen) > budget or chosen & graph.forbidden:
        return False
    if not all(0 <= v < graph.n for v in chosen):
        return False
    adj = graph.neighbors()
    return all(v in chosen or len(adj[v] & chosen) >= d for v, d in enumerate(graph.demand))
