"""The built-in left-right planarity test against networkx as the oracle."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vecdom
from vecdom import AnnotatedInstance, NonPlanarError, embed
from vecdom._lrplanarity import _is_planar, _lr_test, kuratowski_edges
from vecdom.toolkit import generate_planar

nx = pytest.importorskip("networkx", exc_type=ImportError)

BLOCKS, BLOCK = 8, 250  # 2000 seeded graphs


def seeded_graph(seed):
    """A seeded graph: vertices and edges, with sparse shuffled vertex ids.

    Seeds cycle through four kinds: a sparse random graph (isolated
    vertices, several components), a planar graph, a planar graph with
    chords added, and a planar graph with chords next to a second planar
    component and isolated vertices.
    """
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        n = rng.randint(1, 30)
        p = rng.choice((0.03, 0.08, 0.15, 0.3))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    else:
        base = generate_planar(rng.randint(3, 24), rng.choice((0.5, 0.8, 1.0)), seed)
        n, edges = base.n, base.edges()
        if kind >= 2:
            present = set(edges)
            for _ in range(rng.randint(1, 4)):
                u, v = sorted(rng.sample(range(n), 2))
                if (u, v) not in present:
                    present.add((u, v))
                    edges.append((u, v))
        if kind == 3:
            other = generate_planar(rng.randint(3, 8), 1.0, seed + 1)
            edges += [(n + u, n + v) for u, v in other.edges()]
            n += other.n + rng.randint(1, 3)
    ids = rng.sample(range(10 * n + 10), n)
    return ids, [(ids[u], ids[v]) for u, v in edges]


def nx_graph(vertices, edges):
    """The graph as ``embed`` feeds it to a planarity test: sorted vertices, sorted edges."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(vertices))
    graph.add_edges_from(sorted(tuple(sorted(e)) for e in edges))
    return graph


@pytest.mark.parametrize("block", range(BLOCKS))
def test_rotation_and_refusal_equal_networkx(block):
    kinds = {"non-planar": 0, "isolated": 0, "components": 0}
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        vertices, edges = seeded_graph(seed)
        graph = nx_graph(vertices, edges)
        planar, embedding = nx.check_planarity(graph)
        inst = AnnotatedInstance(vertices, edges)
        if not planar:
            kinds["non-planar"] += 1
            with pytest.raises(NonPlanarError):
                embed(inst)
            continue
        kinds["isolated"] += any(graph.degree(v) == 0 for v in graph)
        kinds["components"] += nx.number_connected_components(graph) > 1
        expected = {v: tuple(embedding.neighbors_cw_order(v)) for v in graph}
        assert embed(inst).rotation == expected, f"seed {seed}"
    assert all(count >= 10 for count in kinds.values()), kinds


def assert_kuratowski(witness):
    graph = nx.Graph(witness)
    assert not nx.check_planarity(graph)[0]
    for edge in witness:
        smaller = graph.copy()
        smaller.remove_edge(*edge)
        assert nx.check_planarity(smaller)[0], edge


def non_planar_inputs():
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    yield "K5", list(range(5)), k5
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    yield "K3,3", list(range(6)), k33
    found = 0
    for seed in range(2, 400, 4):  # planar graphs with chords added
        vertices, edges = seeded_graph(seed)
        if not nx.check_planarity(nx_graph(vertices, edges))[0]:
            found += 1
            yield f"seed {seed}", vertices, edges
    assert found >= 10


@pytest.mark.parametrize(
    "vertices, edges", [pytest.param(v, e, id=name) for name, v, e in non_planar_inputs()]
)
def test_witness_is_a_minimal_non_planar_subgraph(vertices, edges):
    with pytest.raises(NonPlanarError) as err:
        embed(AnnotatedInstance(vertices, edges))
    witness = err.value.witness_edges
    assert set(witness) <= {tuple(sorted(e)) for e in edges}
    assert_kuratowski(witness)


def test_witness_equals_networkx_counterexample():
    for _, vertices, edges in non_planar_inputs():
        with pytest.raises(NonPlanarError) as err:
            embed(AnnotatedInstance(vertices, edges))
        expected = nx.algorithms.planarity.get_counterexample(nx_graph(vertices, edges))
        assert err.value.witness_edges == sorted(tuple(sorted(e)) for e in expected.edges())


def test_stripped_test_agrees_with_networkx():
    # The witness search tests graphs after deleting vertices of degree at
    # most one and suppressing those of degree two.
    planar = 0
    for seed in range(400):
        vertices, edges = seeded_graph(seed)
        expected = nx.check_planarity(nx_graph(vertices, edges))[0]
        assert _is_planar(edges) == expected, seed
        planar += expected
    assert 100 < planar < 350


def one_edge_at_a_time(vertices, adjacency):
    """The Kuratowski witness by one planarity test per edge: try to delete
    every edge in turn, vertex by vertex in adjacency order, and keep it
    deleted when the rest stays non-planar.  An edge put back goes to the
    end of both endpoints' adjacency, as in a networkx graph."""
    adj = {v: dict.fromkeys(adjacency[v]) for v in vertices}
    witness = set()
    for u in vertices:
        for v in list(adj[u]):
            del adj[u][v], adj[v][u]
            if _lr_test(vertices, {x: list(nbrs) for x, nbrs in adj.items()}) is not None:
                adj[u][v] = adj[v][u] = None
                witness.add((u, v) if u < v else (v, u))
    return sorted(witness)


def larger_non_planar_inputs():
    """Planar graphs on 30-200 vertices with one to three chords added,
    the first six of them that are not planar."""
    found = 0
    for seed in itertools.count():
        rng = random.Random(seed)
        n = rng.randint(30, 200)
        base = generate_planar(n, rng.choice((0.8, 1.0)), seed)
        edges = base.edges()
        present = set(edges)
        for _ in range(rng.randint(1, 3)):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in present:
                present.add((u, v))
                edges.append((u, v))
        if not nx.check_planarity(nx_graph(range(n), edges))[0]:
            yield seed, AnnotatedInstance(range(n), edges)
            found += 1
            if found == 6:
                return


def test_witness_by_blocks_equals_the_one_edge_loop():
    sizes = []
    for seed, inst in larger_non_planar_inputs():
        vertices = inst.vertices
        adjacency = {v: sorted(inst.neighbors(v)) for v in vertices}
        with pytest.raises(NonPlanarError) as err:
            embed(inst)
        assert err.value.witness_edges == one_edge_at_a_time(vertices, adjacency), seed
        assert kuratowski_edges(vertices, adjacency) == err.value.witness_edges
        sizes.append(inst.n)
    assert min(sizes) < 100 and max(sizes) > 150


def test_import_does_not_load_networkx():
    src = str(Path(vecdom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, vecdom; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
