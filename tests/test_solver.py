"""Exact solvers: brute-force oracle, branch and bound, witness checking."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from vecdom import (
    InvalidInstanceError,
    NodeBudgetError,
    OracleLimitError,
    solve_bb,
    solve_brute,
    verify_solution,
)
from vecdom.selftest import corpus_instance
from vecdom.toolkit import generate_planar, make_special_case

from conftest import build


def _maximal_planar(n, profile, seed):
    return make_special_case(generate_planar(n, 1.0, seed), profile)


def _outcome(result):
    witness = sorted(result.witness) if result.answer else None
    return (result.answer, witness, result.nodes_explored)


class TestSolveBrute:
    def test_k4_uniform_demand_single_pick(self):
        inst = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)],
                     {v: 1 for v in range(4)}, k=1)
        result = solve_brute(inst)
        assert result.answer
        assert len(result.witness) == 1

    def test_member_convention_single_vertex(self):
        inst = build(1, demand={0: 1}, k=1)
        result = solve_brute(inst)
        assert result.answer
        assert result.witness == {0}

    def test_zero_budget_demanding_vertex(self):
        inst = build(1, demand={0: 1}, k=0)
        assert not solve_brute(inst).answer

    def test_negative_budget_is_no(self):
        inst = build(1, k=-1)
        assert not solve_brute(inst).answer

    def test_forbidden_vertices_excluded(self):
        inst = build(2, [(0, 1)], {1: 1}, k=2, forbidden=[0, 1])
        assert not solve_brute(inst).answer

    def test_oracle_limit(self):
        with pytest.raises(OracleLimitError):
            solve_brute(build(19), oracle_limit=18)

    def test_deterministic_witness(self):
        inst = make_special_case(generate_planar(10, 0.8, 5), "random:2", seed=5)
        inst.budget = 3
        first, second = solve_brute(inst), solve_brute(inst)
        assert (first.answer, first.witness, first.nodes_explored) == (
            second.answer, second.witness, second.nodes_explored)


class TestSolveBB:
    def test_all_zero_demand_one_node(self):
        inst = build(6, [(0, 1), (2, 3)], k=0)
        result = solve_bb(inst)
        assert result.answer
        assert result.witness == frozenset()
        assert result.nodes_explored == 1

    def test_unsatisfiable_forbidden_vertex(self):
        inst = build(2, [(0, 1)], {0: 2}, k=2, forbidden=[0])
        assert not solve_bb(inst).answer

    def test_node_budget_enforced(self):
        inst = make_special_case(generate_planar(12, 0.9, 2), "r:2")
        inst.budget = 3
        with pytest.raises(NodeBudgetError):
            solve_bb(inst, node_budget=1)

    def test_witness_always_valid(self):
        for seed in range(40):
            inst = make_special_case(generate_planar(9, 0.75, seed), "random:2", seed=seed)
            inst.budget = seed % 4
            result = solve_bb(inst)
            if result.answer:
                assert verify_solution(inst, result.witness)

    @given(st.integers(0, 2000))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_oracle(self, seed):
        profile = ("random:2", "r:1", "bdvd:1", "pids")[seed % 4]
        inst = make_special_case(generate_planar(4 + seed % 9, 0.7, seed), profile, seed=seed)
        inst.budget = seed % 4
        assert solve_bb(inst).answer == solve_brute(inst).answer

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle_under_forbidden_sets(self, seed):
        inst = make_special_case(generate_planar(4 + seed % 8, 0.8, seed), "random:2", seed=seed)
        inst.budget = seed % 4
        inst.forbidden = {v for v in inst.vertices if (v + seed) % 3 == 0}
        assert solve_bb(inst).answer == solve_brute(inst).answer

    def test_search_tree_is_pinned(self):
        # Maximal planar pids graphs at n=26, as the solve-dense benchmark
        # runs them; opt is 7-10 here, so both answers occur.  The digest
        # covers every witness and node count: a change to the branching
        # rule, its tie-break, the candidate order or a bound moves it.
        rows = []
        for seed in range(30):
            inst = _maximal_planar(26, "pids", seed)
            for k in (7, 8, 9):
                inst.budget = k
                rows.append((seed, k, *_outcome(solve_bb(inst))))
        assert sum(row[2] for row in rows) == 49
        assert sum(row[4] for row in rows if not row[2]) == 3414
        assert sum(row[4] for row in rows) == 3646
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "ccd61cbd5d41019e0c76f23d2b008ef6ab021309e8f7b8e78d10dcb45f819c96"

    def test_deep_search_runs_on_an_explicit_stack(self):
        # Every isolated demand-1 vertex must choose itself, so the search
        # goes 1100 choices deep, past Python's default recursion limit.
        # The five-vertex component after them (corpus_instance(1519),
        # optimum 2) takes the root's greedy cover past the budget, so
        # the root does not decide and the search runs.
        n = 1100
        edges = [(n + u, n + v) for u, v in [(0, 2), (1, 2), (1, 3), (1, 4), (3, 4)]]
        demand = {v: 1 for v in range(n)} | {n + v: d for v, d in enumerate((0, 1, 2, 2, 1))}
        inst = build(n + 5, edges, demand, k=n + 2)
        result = solve_bb(inst)
        assert result.answer
        assert verify_solution(inst, result.witness)
        assert result.witness >= frozenset(range(n))
        assert result.nodes_explored >= n + 1

    @pytest.mark.parametrize("seed, k", [(0, 7), (0, 8), (1, 9)])
    def test_node_budget_boundary(self, seed, k):
        inst = _maximal_planar(26, "pids", seed)
        inst.budget = k
        full = solve_bb(inst)
        assert _outcome(solve_bb(inst, node_budget=full.nodes_explored)) == _outcome(full)
        with pytest.raises(NodeBudgetError):
            solve_bb(inst, node_budget=full.nodes_explored - 1)

    @pytest.mark.parametrize("n", range(14, 19))
    @pytest.mark.parametrize("profile", ["pids", "r:2"])
    @pytest.mark.parametrize("with_forbidden", [False, True])
    def test_agrees_with_oracle_on_maximal_planar(self, n, profile, with_forbidden):
        for seed in range(3):
            inst = _maximal_planar(n, profile, seed)
            if with_forbidden:
                inst.forbidden = {v for v in inst.vertices if (v + seed) % 5 == 0}
            inst.budget = n
            best = solve_brute(inst)
            if not best.answer:
                assert not solve_bb(inst).answer
                continue
            opt = len(best.witness)
            for k in (opt - 1, opt):
                inst.budget = k
                result = solve_bb(inst)
                assert result.answer == solve_brute(inst).answer == (k == opt)
                if result.answer:
                    assert verify_solution(inst, result.witness)

    @pytest.mark.parametrize("with_forbidden", [False, True])
    def test_agrees_with_oracle_at_the_optimum_on_the_corpus(self, with_forbidden):
        # An unsound lower bound prunes a feasible node, which shows as a
        # NO at k = opt.
        for seed in range(500):
            inst = corpus_instance(seed)
            if with_forbidden:
                inst.forbidden = {v for v in inst.vertices if (v + seed) % 4 == 0}
            inst.budget = inst.n
            best = solve_brute(inst)
            if not best.answer:
                assert not solve_bb(inst).answer, seed
                continue
            opt = len(best.witness)
            for k in (opt - 1, opt):
                inst.budget = k
                result = solve_bb(inst)
                assert result.answer == (k == opt), (seed, k)
                if result.answer:
                    assert verify_solution(inst, result.witness), (seed, k)

    @pytest.mark.parametrize("edges, loops, demand, expected", [
        ([(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4),
          (3, 4)], [(0, 0), (3, 3), (4, 4)],
         {1: 1, 3: 2, 4: 1, 5: 1}, (True, [0, 3], 1)),
        ([(0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], [(0, 0), (5, 5)],
         {0: 2, 1: 2, 3: 1, 4: 2, 5: 2}, (False, None, 1)),
    ])
    def test_loops_refused_loop_free_graph_decided(self, edges, loops, demand, expected):
        # A loop never counts toward a demand, so the instance refuses one;
        # the graph without its loops has the same answer from both solvers.
        with pytest.raises(InvalidInstanceError, match="self-loop at 0"):
            build(6, edges + loops, demand, k=2)
        inst = build(6, edges, demand, k=2)
        result = solve_bb(inst)
        assert _outcome(result) == expected
        assert solve_brute(inst).answer == expected[0]
        if result.answer:
            assert verify_solution(inst, result.witness)


def _wheel(k, forbidden=()):
    rim = [(i, i % 6 + 1) for i in range(1, 7)]
    spokes = [(0, v) for v in range(1, 7)]
    return build(7, rim + spokes, {v: 1 for v in range(7)}, k=k, forbidden=forbidden)


class TestRootCover:
    """The greedy cover and redundancy pass that can decide YES at the
    root of ``solve_bb``."""

    def test_forbidden_vertex_never_picked(self):
        inst = _wheel(3, forbidden=[0])
        result = solve_bb(inst)
        assert _outcome(result) == (True, [1, 4], 1)
        assert verify_solution(inst, result.witness)

    def test_redundant_first_pick_dropped(self):
        # The hub 0 has the largest gain and is picked first; 5 and 6,
        # picked for the leaves 7 and 8, then cover all its neighbors.
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2), (6, 3), (6, 4), (5, 7), (6, 8)]
        demand = {1: 1, 2: 1, 3: 1, 4: 1, 7: 1, 8: 1}
        inst = build(9, edges, demand, k=2)
        result = solve_bb(inst)
        assert _outcome(result) == (True, [5, 6], 1)
        assert verify_solution(inst, result.witness)

    def test_node_budget_applies_at_the_root(self):
        inst = _wheel(2)
        with pytest.raises(NodeBudgetError):
            solve_bb(inst, node_budget=0)
        assert _outcome(solve_bb(inst, node_budget=1)) == (True, [0], 1)

    def test_agrees_with_oracle_on_the_corpus(self):
        at_root = 0
        for seed in range(1000):
            inst = corpus_instance(seed)
            for k in range(5):
                inst.budget = k
                result = solve_bb(inst)
                assert result.answer == solve_brute(inst).answer, (seed, k)
                if result.answer:
                    assert verify_solution(inst, result.witness), (seed, k)
                    at_root += result.nodes_explored == 1
        # 20 of these 1880 YES answers need no choice at all.
        assert at_root == 1812

    def test_agrees_with_oracle_with_forbidden_vertices(self):
        # corpus_instance forbids nothing; here about 30% of the
        # vertices are forbidden, on random sizes, densities and profiles.
        solves = yes = 0
        for seed in range(3000):
            rng = random.Random(seed)
            n = rng.randint(1, 12)
            density = rng.choice([0.5, 0.7, 0.9, 1.0])
            profile = rng.choice(["random:2", "r:1", "bdvd:1", "pids", "random:3", "r:2"])
            inst = make_special_case(generate_planar(n, density, seed), profile, seed=seed)
            inst.forbidden = {v for v in inst.vertices if rng.random() < 0.3}
            for k in range(5):
                inst.budget = k
                result = solve_bb(inst)
                assert result.answer == solve_brute(inst).answer, (seed, k)
                if result.answer:
                    assert verify_solution(inst, result.witness), (seed, k)
                solves += 1
                yes += result.answer
        assert (solves, yes) == (15000, 6413)


class TestVerifySolution:
    def test_bb_witness_verifies(self):
        inst = build(4, [(0, 1), (1, 2), (2, 3)], {0: 1, 1: 1, 2: 1, 3: 1}, k=2)
        result = solve_bb(inst)
        assert result.answer
        assert verify_solution(inst, result.witness)

    def test_forbidden_member_rejected(self):
        inst = build(2, [(0, 1)], {1: 1}, k=2, forbidden=[0])
        assert not verify_solution(inst, {0})

    def test_oversized_set_rejected(self):
        inst = build(3, [(0, 1), (1, 2)], k=1)
        assert not verify_solution(inst, {0, 2})

    def test_undersized_coverage_rejected(self):
        inst = build(3, [(0, 1), (1, 2)], {1: 2}, k=1)
        assert not verify_solution(inst, {0})
