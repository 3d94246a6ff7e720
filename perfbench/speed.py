"""How fast the machine runs Python right now, from a fixed reference loop.

On a shared host the same code can run 1.5-1.7 times slower for seconds
to minutes at a time, with CPU time equal to wall time: a neighbour
busy on the same physical core slows every instruction, so neither a
CPU-time clock nor a longer run removes it.  The benchmark therefore
runs a small, frozen reference loop between operations and reports each
time rescaled to the speed at which one sample of that loop takes
``REFERENCE_S``: ``seconds * REFERENCE_S / sample``, with ``sample`` the
mean of the samples just before and just after the timed interval.  The
loop uses no vecdom code, so a change to vecdom moves the rescaled times
as much as it moves the raw ones.

Kinds of work slow down by different amounts, so the loop mixes the
kinds vecdom does (set and dict graph search, small objects and
attribute access, heaps and sorting, the networkx planarity test,
bitmask branching); the mix tracked the workloads' speed better than
any one of them alone.  The correction is partial: in a four-minute
trace the kernelize and solve operations slowed down by about 0.7-0.8 of
what the loop did, and selftest blocks, which run on a thread pool, by
about 0.3.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time

import networkx as nx

import instances

# One sample of the loop on a 2.0 GHz Xeon vCPU with CPython 3.11 while
# the core was not shared; rescaled times read as seconds at that speed.
REFERENCE_S = 0.010
EVERY_S = 0.3  # least time between samples while operations run

_GRAPH = instances.make(48, 1.0, "pids", 12345)
_ADJ = [sorted(s) for s in _GRAPH.neighbors()]
_NX = nx.Graph(_GRAPH.edges)
_MASKS = [sum(1 << w for w in _ADJ[v]) | (1 << v) for v in range(_GRAPH.n)]


class _Node:
    __slots__ = ("v", "depth", "parent")

    def __init__(self, v, depth, parent):
        self.v, self.depth, self.parent = v, depth, parent

    def height(self) -> int:
        return 0 if self.parent is None else 1 + self.parent.height()


def _search() -> int:
    """Depth-3 neighbourhoods with sets, then neighbour counts in a dict."""
    total = 0
    for v in range(_GRAPH.n):
        seen = {v}
        frontier = [v]
        for _ in range(3):
            nxt = []
            for u in frontier:
                for w in _ADJ[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        counts: dict[int, int] = {}
        for u in sorted(seen):
            for w in _ADJ[u]:
                counts[w] = counts.get(w, 0) + 1
        total += max(counts.values()) + len(tuple(sorted(counts.items())))
    return total


def _objects() -> int:
    """The same neighbourhoods as trees of small objects."""
    total = 0
    for s in range(_GRAPH.n):
        stack, seen = [_Node(s, 0, None)], {s}
        while stack:
            x = stack.pop()
            if x.depth >= 3:
                total += x.height()
                continue
            for w in _ADJ[x.v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(_Node(w, x.depth + 1, x))
    return total


def _heap() -> int:
    rng = random.Random(5)
    heap: list[tuple[float, int]] = []
    for i in range(1500):
        heapq.heappush(heap, (rng.random(), i))
    total = len(sorted(((b, a) for a, b in heap), reverse=True))
    while heap:
        total += heapq.heappop(heap)[1]
    return total


def _branch() -> int:
    """A bounded branching search for a dominating set over bitmasks."""
    full = (1 << _GRAPH.n) - 1
    nodes = 0

    def grow(covered: int, left: int) -> None:
        nonlocal nodes
        nodes += 1
        if covered == full or left == 0 or nodes > 6000:
            return
        free = ~covered & full
        v = (free & -free).bit_length() - 1
        for u in _ADJ[v] + [v]:
            grow(covered | _MASKS[u], left - 1)

    grow(0, 6)
    return nodes


def _reference() -> int:
    return _search() + _objects() + _heap() + int(nx.check_planarity(_NX)[0]) + _branch()


class Speedometer:
    """Samples of the reference loop, kept in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        _reference()  # warm up before the first sample counts

    def sample(self) -> None:
        start = time.perf_counter()
        _reference()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is more recent than ``EVERY_S``."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds spent in [start, end] into reference seconds."""
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.starts)]
        if not near:
            raise ValueError("no speed sample taken")
        return REFERENCE_S / (sum(near) / len(near))


def measure(samples: int = 2) -> float:
    """The factor from wall to reference seconds, from fresh samples."""
    meter = Speedometer()
    for _ in range(samples):
        meter.sample()
    return REFERENCE_S / statistics.mean(meter.seconds)
