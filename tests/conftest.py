"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import importlib.util

import pytest

import vecdom.regions
import vecdom.solver
from vecdom import AnnotatedInstance


def load_by_path(name, path):
    """Import the file ``path`` as a module called ``name``, without putting
    its directory on ``sys.path`` or the module in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def path_cap(monkeypatch):
    """A setter for ``vecdom.regions.MAX_PATHS_PER_PAIR`` that holds for the
    rest of the test: every ``RegionIndex`` built afterwards, by a fixpoint
    run or a stats report too, keeps at most that many typed paths per pair."""
    return lambda cap: monkeypatch.setattr(vecdom.regions, "MAX_PATHS_PER_PAIR", cap)


@pytest.fixture
def oracle_limit(monkeypatch):
    """A setter for ``vecdom.solver.ORACLE_LIMIT`` that holds for the rest
    of the test: ``solve_brute``, and with it the battery and ``vecdom solve
    --method brute``, refuses any instance with more vertices."""
    return lambda limit: monkeypatch.setattr(vecdom.solver, "ORACLE_LIMIT", limit)


@pytest.fixture
def region_calls(monkeypatch):
    """A counter of calls to named ``vecdom.regions`` functions:
    ``region_calls("_regions", "cycle_sides")`` wraps each for the rest of
    the test and returns a dict from each name to its calls so far, which
    the caller may reset."""

    def count(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, name=name, real=getattr(vecdom.regions, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(vecdom.regions, name, counted)
        return calls

    return count


def build(n, edges=(), demand=None, k=0, forbidden=()):
    return AnnotatedInstance(range(n), edges, demand or {}, budget=k, forbidden=forbidden)


# Worst-case candidate region: an 8-cycle boundary around 15 interior
# vertices, every interior vertex dominated by the two anchors, with
# exactly three central vertices tied to both high-demand boundary
# vertices.  Vertex names follow the drawing: anchors 0 and 4; the two
# demand-2 boundary vertices are 1 and 5.
WORST_CASE_NAMES = {
    0: "a1", 1: "y", 2: "c_top", 3: "d_top", 4: "a2", 5: "y2", 6: "c_bot",
    7: "d_bot", 8: "vmid", 9: "v", 10: "vp", 11: "b", 12: "c", 13: "w",
    14: "d", 15: "e", 16: "f", 17: "bp", 18: "cp", 19: "wp", 20: "dp",
    21: "ep", 22: "fp",
}

WORST_CASE_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
    (1, 9), (5, 9), (1, 10), (5, 10),
    (11, 9), (11, 4),
    (12, 9), (12, 4), (12, 5),
    (1, 8), (5, 8), (8, 10),
    (1, 14), (1, 13),
    (14, 11),
    (15, 13), (15, 14), (15, 4),
    (16, 13), (16, 2), (16, 4),
    (17, 10), (17, 0),
    (18, 10), (18, 0), (18, 1),
    (5, 20), (5, 19),
    (20, 17),
    (21, 19), (21, 20), (21, 0),
    (22, 19), (22, 6), (22, 0),
]

WORST_CASE_DEMAND = {
    0: 2, 1: 2, 2: 0, 3: 1, 4: 2, 5: 2, 6: 0, 7: 1,
    8: 0, 9: 0, 10: 0, 11: 1, 12: 1, 13: 0, 14: 0, 15: 1, 16: 1,
    17: 1, 18: 1, 19: 0, 20: 0, 21: 1, 22: 1,
}


def worst_case_region_instance(k: int = 4) -> AnnotatedInstance:
    return AnnotatedInstance(range(23), WORST_CASE_EDGES, WORST_CASE_DEMAND, budget=k)


@pytest.fixture
def worst_case_instance():
    return worst_case_region_instance()
