"""Combinatorial planar embeddings.

``embed`` certifies planarity with the left-right planarity test of
``vecdom._lrplanarity`` and returns the embedding it finds, built when it
is first read: most callers only need the certificate.  A rotation
system (the cyclic order of neighbors around each vertex) fixes a planar
embedding without coordinates.  Faces fall out of a standard dart
traversal, and the two sides of any simple cycle can then be separated
purely combinatorially: two faces lie on the same side exactly when they
can be glued along edges that do not belong to the cycle.
"""

from __future__ import annotations

from ._lrplanarity import _embedding, _lr_test, kuratowski_edges
from .instance import AnnotatedInstance, VecdomError, require_valid


class NonPlanarError(VecdomError):
    def __init__(self, witness_edges=None):
        detail = f" (witness subgraph with {len(witness_edges)} edges)" if witness_edges else ""
        super().__init__("graph is not planar" + detail)
        self.witness_edges = witness_edges or []


class NotACycleError(VecdomError):
    pass


class StaleEmbeddingError(VecdomError):
    pass


class RotationSystem:
    """Planar embedding as per-vertex cyclic neighbor orders, with derived faces.

    Faces are tuples of darts (directed edges); every dart belongs to
    exactly one face.  Immutable.  ``embed`` builds every instance, as
    ``RotationSystem(adjacency, make_embedding)``: the graph's adjacency
    is known from the start, and the rotation, faces and components are
    built from ``make_embedding()``, the planarity test's embedding phase,
    when any of them is first read.

    ``adjacency`` maps each vertex to its neighbors in increasing order;
    ``rotation`` maps it to the same neighbors in their cyclic order in
    the embedding.  ``adjacency`` is shared with its readers, such as
    ``RegionIndex``, and must not be changed.  ``describes`` reads only
    ``adjacency``, so it builds nothing.
    """

    def __init__(self, adjacency: dict[int, list[int]], make_embedding):
        self.adjacency = adjacency
        self._make_embedding = make_embedding

    def __getattr__(self, name):
        """Build the embedding on the first read of an attribute not set yet.

        Python calls this only for names the instance does not hold, so a
        read after the build that reaches it names no attribute and
        raises.  Dunder names never build: ``copy`` and ``pickle`` look
        them up on instances, and copying an embedding must not build it.
        """
        make = None if name.startswith("__") else self.__dict__.pop("_make_embedding", None)
        if make is not None:
            self._build(*make())
            return getattr(self, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _build(self, rotation, successor, component_of) -> None:
        # ``successor[v][u]`` is the neighbor after ``u`` in ``rotation[v]``,
        # so the dart after (u, v) on its face is (v, successor[v][u]).
        self.rotation = rotation
        faces = []
        face_of = self.face_of = {}
        for u, around in rotation.items():
            for v in around:
                if (u, v) in face_of:
                    continue
                walk = []
                a, b = u, v
                while (a, b) not in face_of:
                    face_of[(a, b)] = len(faces)
                    walk.append((a, b))
                    a, b = b, successor[b][a]
                faces.append(tuple(walk))
        self.faces = tuple(faces)
        # Per face, each dart (u, v) as (u, the dart, the face of (v, u)).
        self._across = tuple(
            tuple((u, (u, v), face_of[(v, u)]) for u, v in face) for face in self.faces
        )
        self.component_of = component_of
        groups: dict[int, list[int]] = {}
        for v in rotation:
            groups.setdefault(component_of[v], []).append(v)
        self.component_vertices = {c: tuple(members) for c, members in groups.items()}
        # Per component with edges: its face count, and its outer face,
        # the longest, ties to the one with the smallest dart.
        face_counts: dict[int, int] = {}
        outer: dict[int, tuple] = {}
        for fi, face in enumerate(faces):
            c = component_of[face[0][0]]
            face_counts[c] = face_counts.get(c, 0) + 1
            key = (-len(face), min(face))
            if c not in outer or key < outer[c][0]:
                outer[c] = (key, fi)
        for c, members in self.component_vertices.items():
            m_c = sum(len(rotation[v]) for v in members) // 2
            if m_c and len(members) - m_c + face_counts[c] != 2:
                raise AssertionError(
                    f"embedding violates Euler's formula on component {c}: "
                    f"V={len(members)} E={m_c} F={face_counts[c]}"
                )
        self.outer_face_of_component = {c: fi for c, (key, fi) in outer.items()}
        self.face_count = len(faces) - len(outer) + 1

    def describes(self, instance: AnnotatedInstance) -> bool:
        """Whether this embedding still matches the instance's vertices and
        edges: the same vertices, and around each the same neighbors."""
        adj = instance._adj
        if self.adjacency.keys() != adj.keys():
            return False
        for v, nbrs in self.adjacency.items():
            around = adj[v]
            if len(nbrs) != len(around) or not around.issuperset(nbrs):
                return False
        return True


def embed(instance: AnnotatedInstance) -> RotationSystem:
    """Certify planarity and return a deterministic combinatorial embedding.

    Vertices and adjacency lists are fed to the planarity test in sorted
    order, so a fixed input always yields the same rotation system, the
    one networkx's ``check_planarity`` returns for the graph built in that
    order.  Raises ``NonPlanarError`` with a Kuratowski subgraph otherwise.
    The test runs here, on the sorted adjacency lists that become the
    result's ``adjacency``; the embedding phase, the faces and the
    components wait until the rotation system is first read, and are
    skipped if it never is.  The components are the test's DFS trees,
    each named by its smallest vertex, its root.
    """
    require_valid(instance)
    vertices = instance.vertices
    adjacency = {v: sorted(instance.neighbors(v)) for v in vertices}
    state = _lr_test(vertices, adjacency)
    if state is None:
        raise NonPlanarError(kuratowski_edges(vertices, adjacency))
    return RotationSystem(adjacency, lambda: _embedding(vertices, *state))


def _walk_side(rs: RotationSystem, boundary, cycle_darts, start: int, other: int, keep):
    """The vertices strictly on one side of a cycle, or ``None``.

    Walks the faces reachable from face ``start`` without crossing a cycle
    edge and collects the vertices off ``boundary``, the cycle's vertex
    set, on them.  When the walk reaches the outer face of the cycle's
    component, the vertices of every other component join the side.
    Returns ``None`` at the first vertex ``keep`` refuses.
    """
    across = rs._across
    seen = {start}
    stack = [start]
    inside: set[int] = set()
    while stack:
        for u, dart, f in across[stack.pop()]:
            if u not in boundary:
                if u not in inside:
                    if keep is not None and not keep(u):
                        return None
                    inside.add(u)
            elif dart in cycle_darts:
                continue
            if f not in seen:
                if f == other:
                    raise AssertionError("cycle does not separate the embedding")
                seen.add(f)
                stack.append(f)
    # Face ``start`` lies in the cycle's component.
    comp = rs.component_of[across[start][0][0]]
    if rs.outer_face_of_component[comp] in seen:
        for c, members in rs.component_vertices.items():
            if c == comp:
                continue
            if keep is not None and not all(map(keep, members)):
                return None
            inside.update(members)
    return frozenset(inside)


def cycle_sides(
    rs: RotationSystem, cycle, keep=None
) -> tuple[frozenset[int] | None, frozenset[int] | None]:
    """Split the embedded graph along a simple cycle into its two sides.

    Returns the vertices strictly inside each side.  Side 0 is the side of
    dart ``(cycle[0], cycle[1])``, side 1 that of its reverse.  Each side
    is found by a walk over faces from its dart's face that glues faces
    along edges off the cycle and collects the non-cycle vertices it
    meets, so a short cycle costs only as much as the sides it collects.
    Vertices of other components count as lying on the side that holds
    the cycle component's outer face, matching an embedding that nests
    every other component there.

    ``keep`` is an optional predicate on vertices: a side holding a vertex
    that ``keep`` refuses comes back as ``None``, and its walk stops at the
    first such vertex.

    One pass over the cycle's steps checks that each is a dart of the
    embedding and collects the cycle's darts in both directions; the
    walks cross from a face to the next through the face of each dart's
    reverse, which ``RotationSystem`` keeps per face, so no dart is looked
    up.
    """
    cycle = tuple(cycle)
    boundary = set(cycle)
    if len(cycle) < 3:
        raise NotACycleError("a simple cycle needs at least three vertices")
    if len(boundary) != len(cycle):
        raise NotACycleError("cycle repeats a vertex")
    face_of = rs.face_of
    cycle_darts = set()
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        if (u, v) not in face_of:
            for w in (u, v):
                if w not in rs.adjacency:
                    raise NotACycleError(f"cycle vertex {w} is not embedded")
            raise NotACycleError(f"cycle step ({u}, {v}) is not an edge")
        cycle_darts.add((u, v))
        cycle_darts.add((v, u))

    c0, c1 = cycle[0], cycle[1]
    starts = (face_of[(c0, c1)], face_of[(c1, c0)])
    if starts[0] == starts[1]:
        raise AssertionError("cycle does not separate the embedding")
    side0 = _walk_side(rs, boundary, cycle_darts, starts[0], starts[1], keep)
    side1 = _walk_side(rs, boundary, cycle_darts, starts[1], starts[0], keep)
    if side0 is not None and side1 is not None:
        if len(side0) + len(side1) + len(cycle) != len(rs.adjacency):
            raise AssertionError("a vertex lies on neither side of the cycle")
    return side0, side1
