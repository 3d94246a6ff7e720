"""Embeddings: planarity certification, face traversal, cycle sides."""

import copy
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import vecdom.planarity
from vecdom import (
    AnnotatedInstance,
    InvalidInstanceError,
    NonPlanarError,
    NotACycleError,
    cycle_sides,
    embed,
    run_fixpoint,
)
from vecdom.toolkit import generate_planar

from conftest import build


def complete(n):
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def union_find_sides(rs, cycle):
    """Reference split: glue faces along every non-cycle edge with a
    union-find, then read each vertex's side off one of its faces.
    Returns the non-cycle vertices of side 0 and side 1."""
    parent = list(range(len(rs.faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle_edges = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    for u in rs.rotation:
        for v in rs.rotation[u]:
            if u < v and frozenset((u, v)) not in cycle_edges:
                parent[find(rs.face_of[(v, u)])] = find(rs.face_of[(u, v)])
    groups = [find(rs.face_of[(cycle[0], cycle[1])]), find(rs.face_of[(cycle[1], cycle[0])])]
    assert groups[0] != groups[1]
    comp = rs.component_of[cycle[0]]
    sides = (set(), set())
    for v in rs.rotation:
        if v in cycle:
            continue
        if rs.component_of[v] == comp:
            group = find(rs.face_of[(v, rs.rotation[v][0])])
        else:
            group = find(rs.outer_face_of_component[comp])
        sides[groups.index(group)].add(v)
    return sides


def planar_with_isolated(seed):
    """A seeded planar graph at density 0.5-1.0, plus two isolated vertices."""
    base = generate_planar(8 + seed % 13, 0.5 + 0.1 * (seed % 6), seed)
    vertices = base.vertices + [base.n, base.n + 1]
    return AnnotatedInstance(vertices, base.edges(), {}, budget=0)


def short_cycles(inst, limit=60):
    graph = nx.Graph(inst.edges())
    return [tuple(c) for c in itertools.islice(nx.simple_cycles(graph, length_bound=8), limit)]


class TestEmbed:
    def test_k4_has_four_faces(self):
        rs = embed(complete(4))
        assert len(rs.faces) == 4
        assert rs.face_count == 4

    def test_k5_refused(self):
        with pytest.raises(NonPlanarError) as err:
            embed(complete(5))
        assert err.value.witness_edges

    # A 3000-vertex input walks a DFS deeper than Python's recursion limit.
    @pytest.mark.parametrize("n", [6, 3000])
    def test_six_cycle_two_faces(self, n):
        rs = embed(build(n, [(i, (i + 1) % n) for i in range(n)]))
        assert rs.face_count == 2

    def test_long_path_one_face(self):
        rs = embed(build(3000, [(i, i + 1) for i in range(2999)]))
        assert rs.face_count == 1

    def test_deterministic(self):
        inst = generate_planar(30, 0.8, seed=7)
        assert embed(inst).rotation == embed(inst).rotation

    # The second input hangs K3,3 off the end of a 3000-vertex path.
    @pytest.mark.parametrize("tail", [0, 3000])
    def test_k33_refused(self, tail):
        k33 = [(tail + u, tail + v) for u in (0, 1, 2) for v in (3, 4, 5)]
        path = [(i, i + 1) for i in range(tail)]
        inst = build(tail + 6, path + k33)
        with pytest.raises(NonPlanarError) as err:
            embed(inst)
        assert err.value.witness_edges == k33


def seeded_graphs():
    """Connected and disconnected planar graphs, with isolated vertices and
    lone edges among them, and the smallest cases on their own."""
    for seed in range(15):
        a = generate_planar(5 + seed % 11, 0.5 + 0.1 * (seed % 6), seed)
        yield a
        b = generate_planar(3 + seed % 6, 1.0 - 0.1 * (seed % 4), 100 + seed)
        shift = a.n
        lone = shift + b.n
        vertices = a.vertices + [shift + v for v in b.vertices] + [lone, lone + 1, lone + 2]
        edges = a.edges() + [(shift + u, shift + v) for u, v in b.edges()] + [(lone, lone + 1)]
        yield AnnotatedInstance(vertices, edges, {}, budget=0)
    yield build(2, [(0, 1)])
    yield build(4, [(0, 1), (2, 3)])
    yield build(3)


EMBEDDING_FIELDS = (
    "rotation", "faces", "face_of", "component_of", "component_vertices",
    "outer_face_of_component", "face_count",
)


def rotation_edges(rs):
    return {(u, v) for u, around in rs.rotation.items() for v in around if u < v}


class TestEmbeddingOnFirstRead:
    def test_same_embedding_as_one_built_at_once(self):
        for inst in seeded_graphs():
            whole = embed(inst)
            for name in EMBEDDING_FIELDS:
                getattr(whole, name)
            for name in EMBEDDING_FIELDS:
                # Each field read first, on an embedding not built yet.
                assert getattr(embed(inst), name) == getattr(whole, name), (inst.n, name)
            assert rotation_edges(embed(inst)) == set(inst.edges())
            # The adjacency holds the rotation's neighbors, in increasing order.
            assert embed(inst).adjacency == {v: sorted(whole.rotation[v]) for v in inst.vertices}

    def test_built_once_and_only_when_read(self, monkeypatch):
        built = []
        real = vecdom.planarity._embedding
        monkeypatch.setattr(
            vecdom.planarity, "_embedding", lambda *a: built.append(1) or real(*a)
        )
        inst = generate_planar(30, 0.8, seed=4)
        rs = embed(inst)
        assert rs.describes(inst)
        assert rs.adjacency == {v: sorted(inst.neighbors(v)) for v in inst.vertices}
        assert built == []
        for name in EMBEDDING_FIELDS:
            getattr(rs, name)
        assert built == [1]

    def test_describes_answers_alike_before_and_after_the_first_read(self):
        for inst in seeded_graphs():
            fewer_edges = inst.copy()
            if inst.m:
                fewer_edges.delete_edge(*inst.edges()[0])
            fewer_vertices = inst.copy()
            fewer_vertices.delete_vertex(inst.vertices[-1])
            others = (inst, fewer_edges, fewer_vertices)
            rs = embed(inst)
            before = [rs.describes(other) for other in others]
            rs.faces
            after = [rs.describes(other) for other in others]
            # Read off the rotation: the same vertices and the same edges.
            same_graph = [
                other.vertex_set() == rs.rotation.keys()
                and set(other.edges()) == rotation_edges(rs)
                for other in others
            ]
            assert before == after == same_graph == [True, inst.m == 0, False], inst.n

    def test_unknown_attribute_still_raises(self):
        rs = embed(build(3, [(0, 1), (1, 2)]))
        with pytest.raises(AttributeError):
            rs.no_such_field
        assert rs.face_count == 1


class TestBuildRule:
    def test_copies_build_nothing_and_unknown_names_raise(self, monkeypatch):
        built = []
        real = vecdom.planarity._embedding
        monkeypatch.setattr(
            vecdom.planarity, "_embedding", lambda *a: built.append(1) or real(*a)
        )
        rs = embed(generate_planar(30, 0.8, seed=4))
        shallow, deep = copy.copy(rs), copy.deepcopy(rs)
        assert built == []
        assert shallow.adjacency == deep.adjacency == rs.adjacency
        assert shallow.faces == deep.faces == rs.faces
        assert built == [1, 1, 1]
        # Built now: an unknown name raises and builds nothing more.
        with pytest.raises(AttributeError):
            rs.no_such_field
        assert built == [1, 1, 1]


class TestComponents:
    def test_same_components_as_networkx(self):
        several = 0
        for inst in seeded_graphs():
            rs = embed(inst)
            graph = nx.Graph(inst.edges())
            graph.add_nodes_from(inst.vertices)
            expected = {min(c): tuple(sorted(c)) for c in nx.connected_components(graph)}
            assert list(rs.component_vertices.items()) == sorted(expected.items()), inst.n
            assert rs.component_of == {v: c for c, vs in expected.items() for v in vs}, inst.n
            several += len(expected) >= 3
        assert several >= 15


class TestFaces:
    def test_single_edge_one_face_length_two(self):
        rs = embed(build(2, [(0, 1)]))
        fs = rs.faces
        assert len(fs) == 1
        assert len(fs[0]) == 2

    def test_triangle_two_faces_length_three(self):
        rs = embed(build(3, [(0, 1), (1, 2), (0, 2)]))
        fs = rs.faces
        assert sorted(len(f) for f in fs) == [3, 3]

    def test_two_triangles_sharing_an_edge(self):
        # Euler: 4 - 5 + F = 2 so F = 3
        rs = embed(build(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)]))
        assert len(rs.faces) == 3

    def test_every_dart_in_exactly_one_face(self):
        inst = generate_planar(25, 0.7, seed=3)
        rs = embed(inst)
        darts = [d for f in rs.faces for d in f]
        assert len(darts) == len(set(darts)) == 2 * inst.m

    @given(st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_euler_formula_merged(self, seed):
        inst = generate_planar(4 + seed % 12, 0.5 + (seed % 5) * 0.125, seed)
        rs = embed(inst)
        components = len(set(rs.component_of.values()))
        assert inst.n - inst.m + rs.face_count == 1 + components

    def test_non_planar_rotation_violates_euler(self):
        # K4 with every vertex's neighbors in increasing order: a rotation
        # of genus 1, whose two faces break Euler's formula.
        rotation = {v: [u for u in range(4) if u != v] for v in range(4)}
        successor = {v: dict(zip(a, a[1:] + a[:1])) for v, a in rotation.items()}
        rs = vecdom.planarity.RotationSystem(
            rotation, lambda: (rotation, successor, dict.fromkeys(rotation, 0))
        )
        with pytest.raises(AssertionError, match="component 0: V=4 E=6 F=2"):
            rs.faces


class TestCycleSides:
    def test_triangle_hanging_inside_hexagon(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        edges += [(6, 7), (7, 8), (6, 8), (0, 6)]
        inst = build(9, edges)
        sides = cycle_sides(embed(inst), [0, 1, 2, 3, 4, 5])
        counts = sorted(len(s) for s in sides)
        assert counts == [0, 3]
        assert max(sides, key=len) == {6, 7, 8}

    def test_detached_triangle_lands_on_outer_side(self):
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8)]
        inst = build(9, edges)
        rs = embed(inst)
        sides = cycle_sides(rs, [0, 1, 2, 3, 4, 5])
        assert sorted(len(s) for s in sides) == [0, 3]
        # The hexagon's component has two faces, one on each side.
        starts = (rs.face_of[(0, 1)], rs.face_of[(1, 0)])
        outer_holder = starts.index(rs.outer_face_of_component[rs.component_of[0]])
        assert sides[outer_holder] == {6, 7, 8}
        assert sides[1 - outer_holder] == set()

    def test_outer_face_boundary_has_everything_on_one_side(self):
        # wheel: hub 6 joined to a 6-cycle; the rim is a face boundary
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, i) for i in range(6)]
        inst = build(7, edges)
        sides = cycle_sides(embed(inst), [0, 1, 2, 3, 4, 5])
        assert sorted(len(s) for s in sides) == [0, 1]

    def test_k4_triangle_sides(self):
        sides = cycle_sides(embed(complete(4)), [0, 1, 2])
        assert sorted(len(s) for s in sides) == [0, 1]

    def test_rejects_non_cycles(self):
        inst = build(4, [(0, 1), (1, 2), (2, 3)])
        rs = embed(inst)
        with pytest.raises(NotACycleError):
            cycle_sides(rs, [0, 1, 2])  # 2-0 is not an edge
        with pytest.raises(NotACycleError):
            cycle_sides(rs, [0, 1])

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_sides_partition_non_boundary_vertices(self, seed):
        inst = generate_planar(10, 0.9, seed)
        rs = embed(inst)
        cycle = None
        for face in rs.faces:
            walk = [u for u, _ in face]
            if len(walk) >= 3 and len(set(walk)) == len(walk):
                cycle = walk
                break
        if cycle is None:
            return
        a, b = cycle_sides(rs, cycle)
        assert a.isdisjoint(b)
        assert len(a) + len(b) + len(cycle) == inst.n
        assert not (a | b) & set(cycle)

    def test_subgraphs_of_planar_stay_embeddable(self):
        inst = generate_planar(20, 1.0, seed=11)
        embed(inst)
        inst.delete_edge(*inst.edges()[0])
        inst.delete_vertex(inst.vertices[-1])
        embed(inst)


def negative_demand():
    return build(2, [(0, 1)], {1: -1})


@pytest.mark.parametrize("call, error, message", [
    (lambda: embed(negative_demand()), InvalidInstanceError, "negative demand at 1"),
    (lambda: run_fixpoint(negative_demand()), InvalidInstanceError, "negative demand at 1"),
    (lambda: cycle_sides(embed(complete(4)), [0, 1, 2, 1]), NotACycleError,
     "cycle repeats a vertex"),
    (lambda: cycle_sides(embed(complete(4)), [0, 1, 7]), NotACycleError,
     "cycle vertex 7 is not embedded"),
], ids=["embed", "run_fixpoint", "cycle-repeats", "cycle-not-embedded"])
def test_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


class TestCycleSidesMatchUnionFind:
    def test_same_sides_and_side_numbers(self):
        checked = multi_component = 0
        for seed in range(30):
            inst = planar_with_isolated(seed)
            rs = embed(inst)
            multi_component += len(rs.component_vertices) > 3
            for cycle in short_cycles(inst):
                sides = cycle_sides(rs, cycle)
                assert sides == union_find_sides(rs, cycle), (seed, cycle)
                checked += 1
        assert checked > 500 and multi_component > 5

    def test_keep_drops_exactly_the_sides_holding_a_refused_vertex(self):
        rng = random.Random(5)
        dropped = kept = 0
        for seed in range(30):
            inst = planar_with_isolated(seed)
            rs = embed(inst)
            for cycle in short_cycles(inst):
                refused = set(rng.sample(inst.vertices, rng.randint(0, 3)))
                sides = cycle_sides(rs, cycle, lambda w: w not in refused)
                for number, (side, expected) in enumerate(
                    zip(sides, union_find_sides(rs, cycle))
                ):
                    if expected & refused:
                        assert side is None, (seed, cycle, number)
                        dropped += 1
                    else:
                        assert side == expected, (seed, cycle, number)
                        kept += 1
        assert dropped > 100 and kept > 100
