"""Instance and witness files, random planar generators, demand profiles, kernel stats.

An instance file has one ``p pvds <n> <m> <k>`` header, then optional
``d <v> <demand>``, ``f <v>`` and ``e <u> <v>`` lines; a witness file holds
vertex labels.  Both skip blank and ``c`` lines and label vertices 1..n in
sorted-id order.  ``write`` emits a canonical form (sorted lines, zero
demands omitted) so that round-trips are byte stable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .instance import AnnotatedInstance, Status, VecdomError
from .planarity import embed
from .regions import RegionIndex
from .rules import FixpointReport


class ParseError(VecdomError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _data_lines(text: str):
    """Yield ``(line number, tokens)`` for each line neither blank nor a ``c`` comment."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("c"):
            yield ln, parts


def _vertex(tok: str, ln: int, n: int) -> int:
    """The 0-based id of the label ``tok`` on line ``ln`` of a file with
    ``n`` vertices; ``ParseError`` unless ``tok`` is an integer in 1..n."""
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"bad vertex id {tok!r}", ln) from None
    if not 1 <= v <= n:
        raise ParseError(f"vertex {v} out of range 1..{n}", ln)
    return v - 1


def _labels(instance: AnnotatedInstance) -> dict[int, int]:
    """Each vertex's label, keyed in sorted-id order."""
    return {v: i + 1 for i, v in enumerate(instance.vertices)}


def parse(text: str) -> AnnotatedInstance:
    """Parse an instance file; demands default to zero, vertices to isolated.

    A file with n >= 3 vertices and more than 3n-6 edges is refused: no
    such graph is planar.
    """
    n = m = k = None
    demands: dict[int, int] = {}
    forbidden: set[int] = set()
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    for ln, parts in _data_lines(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", ln)
            if len(parts) != 5 or parts[1] != "pvds":
                raise ParseError("header must be 'p pvds <n> <m> <k>'", ln)
            try:
                n, m, k = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise ParseError("header counts must be integers", ln) from None
            if n < 0 or m < 0 or k < 0:
                raise ParseError("negative counts in header", ln)
            continue
        if n is None:
            raise ParseError("data line before header", ln)
        if parts[0] == "d":
            if len(parts) != 3:
                raise ParseError("demand line must be 'd <v> <demand>'", ln)
            v = _vertex(parts[1], ln, n)
            if v in demands:
                raise ParseError(f"duplicate demand for vertex {v + 1}", ln)
            try:
                d = int(parts[2])
            except ValueError:
                raise ParseError("demand must be an integer", ln) from None
            if d < 0:
                raise ParseError("negative demand", ln)
            demands[v] = d
        elif parts[0] == "f":
            if len(parts) != 2:
                raise ParseError("forbidden line must be 'f <v>'", ln)
            v = _vertex(parts[1], ln, n)
            if v in forbidden:
                raise ParseError(f"duplicate forbidden line for vertex {v + 1}", ln)
            forbidden.add(v)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", ln)
            u, v = _vertex(parts[1], ln, n), _vertex(parts[2], ln, n)
            if u == v:
                raise ParseError("self-loops are not allowed", ln)
            key = (u, v) if u < v else (v, u)
            if key in edge_seen:
                raise ParseError(f"duplicate edge {u + 1} {v + 1}", ln)
            edge_seen.add(key)
            edges.append(key)
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", ln)

    if n is None:
        raise ParseError("missing 'p pvds' header")
    if len(edges) != m:
        raise ParseError(f"header announces {m} edges but file has {len(edges)}")
    if n >= 3 and m > 3 * n - 6:
        raise ParseError(f"m > 3n-6: {m} edges exceeds planar bound {3 * n - 6}")
    return AnnotatedInstance(range(n), edges, demands, budget=k, forbidden=forbidden)


def write(instance: AnnotatedInstance) -> str:
    """Serialize to the canonical form.

    Vertices are relabeled 1..n in sorted-id order, so freshly parsed or
    generated instances (dense ids) round-trip field for field, and
    reduced instances with deleted ids come out compact.
    """
    label = _labels(instance)
    lines = [f"p pvds {instance.n} {instance.m} {instance.budget}"]
    for v, lv in label.items():
        if instance.demand[v]:
            lines.append(f"d {lv} {instance.demand[v]}")
    for v in sorted(instance.forbidden):
        lines.append(f"f {label[v]}")
    for u, v in instance.edges():
        lines.append(f"e {label[u]} {label[v]}")
    return "\n".join(lines) + "\n"


def parse_witness(text: str, instance: AnnotatedInstance) -> set[int]:
    """The vertices a witness file for ``instance`` names: label t is
    ``instance.vertices[t - 1]``, the vertex ``write`` labels t."""
    ids = instance.vertices
    return {ids[_vertex(tok, ln, len(ids))] for ln, parts in _data_lines(text) for tok in parts}


def write_witness(instance: AnnotatedInstance, chosen) -> str:
    """The labels ``write`` gives the vertices of ``chosen``, in increasing
    order and separated by spaces."""
    label = _labels(instance)
    return " ".join(str(label[v]) for v in sorted(chosen))


def trivial_instance(answer: bool) -> AnnotatedInstance:
    """A canonical miniature instance equivalent to a decided answer."""
    if answer:
        return AnnotatedInstance([], budget=0, status=Status.DECIDED_YES)
    return AnnotatedInstance(
        [0, 1], [(0, 1)], demand={0: 1}, budget=0, status=Status.DECIDED_NO
    )


def kernel_of(report: FixpointReport) -> AnnotatedInstance:
    """The instance a fixpoint run leaves: the reduced instance while the
    answer is open, the trivial instance of the answer once it is decided."""
    if report.final_status is Status.OPEN:
        return report.final_instance
    return trivial_instance(report.final_status is Status.DECIDED_YES)


def generate_planar(n: int, edge_density: float, seed: int) -> AnnotatedInstance:
    """Random planar graph: grow a triangulation by face splits, then thin it.

    Starting from a triangle, each new vertex is dropped into a random
    face and wired to its three corners; afterwards every edge survives
    independently with probability ``edge_density``.  Demands start at
    zero and the budget at zero; same seed, same graph.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= edge_density <= 1:
        raise ValueError("edge_density must lie in [0, 1]")
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
    kept = [e for e in sorted(edges) if rng.random() < edge_density]
    return AnnotatedInstance(range(n), kept)


# Profile name -> (type of the number after ':', whether it is in range,
# the error for one that is not, demand(number, degree, seeded rng)).
_PROFILES = {
    "r": (int, lambda r: r >= 0, "uniform demand must be non-negative",
          lambda r, deg, rng: r),
    "alpha": (Fraction, lambda alpha: 0 < alpha <= 1, "alpha must lie in (0, 1]",
              lambda alpha, deg, rng: math.ceil(alpha * deg)),
    "bdvd": (int, lambda t: t >= 0, "target degree must be non-negative",
             lambda t, deg, rng: max(0, deg - t)),
    "random": (int, lambda max_d: max_d >= 0, "maximum demand must be non-negative",
               lambda max_d, deg, rng: rng.randint(0, max_d)),
}


def make_special_case(
    instance: AnnotatedInstance, profile: str, seed: int | None = None
) -> AnnotatedInstance:
    """Assign demands from a named profile, returning a new instance.

    Profiles, one ``_PROFILES`` row each: ``r:<r>`` uniform demand r;
    ``alpha:<x>`` demand ceil(x * degree); ``bdvd:<t>`` demand
    max(0, degree - t), so deleting the solution leaves every survivor
    with at most ``t`` neighbors; ``random:<max>`` independent uniform
    demands in 0..max, drawn in vertex order from ``random.Random(seed)``.
    ``pids`` is the alpha=1/2 case and takes no colon or number.  Names
    are case blind and blanks around the name and the number are ignored.
    """
    name, colon, arg = profile.partition(":")
    name = name.strip().lower()
    if name == "pids":
        if colon:
            raise ValueError("pids takes no argument")
        name, arg = "alpha", "1/2"
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    kind, in_range, range_error, demand = _PROFILES[name]
    try:
        number = kind(arg.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"profile {profile!r} needs a number after ':'") from None
    if not in_range(number):
        raise ValueError(range_error)
    out = instance.copy()
    rng = random.Random(seed)
    for v in out.vertices:
        out.demand[v] = demand(number, out.degree(v), rng)
    return out


@dataclass(frozen=True)
class KernelStats:
    n_before: int
    m_before: int
    n_after: int
    m_after: int
    k_before: int
    k_after: int
    blue_count: int
    rule_fire_counts: dict
    region_count_examined: int
    max_region_interior: int
    bound_ratio: float
    status: Status
    caps_hit: bool


def kernel_report(instance: AnnotatedInstance, report: FixpointReport) -> KernelStats:
    """Summarize a completed fixpoint run by the kernel it leaves, ``kernel_of(report)``.

    ``instance`` is the original.  The region count and the largest
    candidate-region interior cover every anchor pair of the kernel,
    forbidden anchors included, at the path cap the fixpoint ran at,
    ``vecdom.regions.MAX_PATHS_PER_PAIR``; ``caps_hit`` says the cap cut a
    list in the run or in these counts.  A run that stopped at
    quiescence hands over the index its last region phase built on that
    graph.  That phase walked and kept the maximal sides of only the pairs
    that could color; ``RegionIndex.region_sizes`` reads those, walks every
    other pair without keeping it, and builds no region.  A fresh index is
    built when there is none or when it does not describe the kernel: the
    run was decided, or the reduced graph or demands changed since the
    index was built.
    """
    kernel = kernel_of(report)
    index = report.region_index
    if index is None or not index.describes(kernel):
        index = RegionIndex(kernel, embed(kernel))
    sizes = index.region_sizes()
    return KernelStats(
        n_before=instance.n,
        m_before=instance.m,
        n_after=kernel.n,
        m_after=kernel.m,
        k_before=instance.budget,
        k_after=kernel.budget,
        blue_count=len(kernel.forbidden),
        rule_fire_counts=dict(report.rule_fire_counts),
        region_count_examined=len(sizes),
        max_region_interior=max(sizes, default=0),
        bound_ratio=kernel.n / max(kernel.budget, 1),
        status=report.final_status,
        caps_hit=report.caps_hit or index.cut,
    )


def format_stats(stats: KernelStats) -> str:
    """One deterministic, machine-grepable line per kernelization run,
    ending in ``caps_hit=1`` only when the path cap cut a list."""
    fires = ",".join(
        f"{rid}:{count}"
        for rid, count in sorted(stats.rule_fire_counts.items(), key=lambda kv: str(kv[0]))
    )
    return (
        f"n_before={stats.n_before} m_before={stats.m_before} "
        f"n_after={stats.n_after} m_after={stats.m_after} "
        f"k_before={stats.k_before} k_after={stats.k_after} "
        f"blue={stats.blue_count} regions={stats.region_count_examined} "
        f"max_region_interior={stats.max_region_interior} "
        f"bound_ratio={stats.bound_ratio:.4f} status={stats.status.value} "
        f"rules={fires or '-'}{' caps_hit=1' if stats.caps_hit else ''}"
    )
