"""Typed paths, candidate regions, and the region coloring rules 6-8."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from vecdom import (
    AnnotatedInstance,
    MalformedPathError,
    UnknownVertexError,
    dominates,
    embed,
    kernel_of,
    rule6,
    rule7,
    rule8,
    run_fixpoint,
    solve_bb,
    FixpointOptions,
)
from vecdom.regions import RegionIndex, classify_path
from vecdom.rules import _region_phase
from vecdom.selftest import corpus_instance, oracle_answer
from vecdom.toolkit import generate_planar, make_special_case

from conftest import build, worst_case_region_instance


def cap_probe_instance():
    """Anchors 0 and 2 of this triangulation are joined by 14 typed paths."""
    return make_special_case(generate_planar(12, 1.0, 3), "r:1")


def index_of(inst, cap=512):
    return RegionIndex(inst, embed(inst), cap)


def path_types(inst, a1, a2, inner):
    """The types of the path ``a1, *inner, a2`` read from either end."""
    path = (a1, *inner, a2)
    return classify_path(inst, path, a1, a2) | classify_path(inst, path[::-1], a2, a1)


class TestClassifyPath:
    def test_length_two_is_type_one(self):
        inst = build(3, [(0, 1), (1, 2)], {1: 5})
        assert classify_path(inst, [0, 1, 2], 0, 2) == {1}

    def test_type_two_pattern(self):
        inst = build(5, [(0, 1), (1, 2), (2, 3), (3, 4)], {1: 1, 2: 0, 3: 2})
        assert classify_path(inst, [0, 1, 2, 3, 4], 0, 4) == {2}

    def test_type_two_rejects_adjacent_inner_end(self):
        inst = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)], {1: 1, 2: 0})
        assert classify_path(inst, [0, 1, 2, 3, 4], 0, 4) == set()

    def test_type_three_orientation(self):
        inst = build(4, [(0, 1), (1, 2), (2, 3)], {1: 2, 2: 1})
        assert classify_path(inst, [0, 1, 2, 3], 0, 3) == set()
        assert classify_path(inst, [3, 2, 1, 0], 3, 0) == {3}

    def test_malformed_paths_rejected(self):
        inst = build(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(MalformedPathError):
            classify_path(inst, [0, 2, 3], 0, 3)  # 0-2 not an edge
        with pytest.raises(MalformedPathError):
            classify_path(inst, [0, 1, 2], 0, 3)  # wrong endpoint


class TestEnumerateBoundaryPaths:
    """Typed-path interiors of one anchor pair, read through ``RegionIndex.interiors``."""

    def test_plain_adjacency_is_not_typed(self):
        inst = build(2, [(0, 1)])
        assert index_of(inst).interiors(0, 1) == []

    def test_two_common_neighbors_two_type_one_paths(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        interiors = index_of(inst).interiors(0, 1)
        assert len(interiors) == 2
        assert all(path_types(inst, 0, 1, inner) == {1} for inner in interiors)

    def test_worst_case_boundary_paths_found_both_ways(self):
        inst = worst_case_region_instance()
        interiors = index_of(inst).interiors(0, 4)
        four_edge = {inner for inner in interiors if len(inner) == 3}
        assert (1, 2, 3) in four_edge   # typed only when read from anchor 4
        assert (7, 6, 5) in four_edge
        assert all(path_types(inst, 0, 4, inner) == {2} for inner in four_edge)

    def test_deterministic_order(self):
        inst = generate_planar(12, 0.9, 3)
        a, b = inst.vertices[0], inst.vertices[5]
        assert index_of(inst).interiors(a, b) == index_of(inst).interiors(a, b)

    def test_negative_cap_refused(self):
        inst = cap_probe_instance()
        interiors = index_of(inst).interiors(0, 2)
        assert len(interiors) == 14
        assert index_of(inst, 13).interiors(0, 2) == interiors[:13]
        with pytest.raises(ValueError):
            index_of(inst, -1)

    @pytest.mark.parametrize("pair", [(99, 0), (0, 99)])
    def test_unknown_anchor_refused(self, pair):
        index = index_of(cap_probe_instance())
        for query in (index.interiors, index.capped, index.regions):
            with pytest.raises(UnknownVertexError):
                query(*pair)
        with pytest.raises(UnknownVertexError):
            index.far_ends(max(pair))

    @pytest.mark.parametrize("pair", [(1, 0), (0, 0)])
    def test_unordered_pair_refused(self, pair):
        index = index_of(cap_probe_instance())
        for query in (index.interiors, index.capped, index.regions):
            with pytest.raises(MalformedPathError):
                query(*pair)


def brute_typed_interiors(inst, a1, a2):
    """The interior of every vertex sequence of 2-4 edges from a1 to a2 that
    classify_path accepts from either end, in (len, path) order."""
    others = [v for v in inst.vertices if v not in (a1, a2)]
    typed = []
    for length in (1, 2, 3):
        for inner in itertools.permutations(others, length):
            try:
                if path_types(inst, a1, a2, inner):
                    typed.append(inner)
            except MalformedPathError:
                continue
    return sorted(typed, key=lambda inner: (len(inner), inner))


def seeded_instance_with_forbidden(seed):
    rng = random.Random(seed)
    base = make_special_case(generate_planar(8 + seed % 3, 0.9, seed), "random:2", seed=seed)
    forbidden = rng.sample(base.vertices, 2)
    return AnnotatedInstance(
        base.vertices, base.edges(), base.demand, budget=3, forbidden=forbidden
    )


class TestRegionIndex:
    # With cap 10, seed 0 has its only capped pairs at a forbidden anchor.
    @pytest.mark.parametrize("cap", [2, 10, 512])
    def test_typed_paths_and_caps_match_brute_force(self, cap):
        any_capped = False
        for seed in range(6):
            inst = seeded_instance_with_forbidden(seed)
            index = RegionIndex(inst, embed(inst), cap)
            phase_caps = False
            for a1, a2 in itertools.combinations(inst.vertices, 2):
                expected = brute_typed_interiors(inst, a1, a2)
                assert index.interiors(a1, a2) == expected[:cap], (seed, a1, a2)
                assert index.capped(a1, a2) == (len(expected) > cap)
                assert (a2 in index.far_ends(a1)) == bool(expected)
                if not {a1, a2} & inst.forbidden:
                    phase_caps |= len(expected) > cap
            any_capped |= phase_caps
            phase_inst = inst.copy()
            _, caps_hit = _region_phase(phase_inst, RegionIndex(phase_inst, embed(phase_inst), cap))
            assert caps_hit == phase_caps, seed
        assert any_capped == (cap < 512)

    def test_interior_length_fixes_the_type(self):
        # One, two or three interior vertices: type 1, 3 or 2, and only that.
        expected = {1: {1}, 2: {3}, 3: {2}}
        for seed in range(6):
            inst = seeded_instance_with_forbidden(seed)
            index = index_of(inst)
            for a1, a2 in itertools.combinations(inst.vertices, 2):
                for inner in index.interiors(a1, a2):
                    assert path_types(inst, a1, a2, inner) == expected[len(inner)], (seed, inner)

    def test_regions_match_the_single_pair_enumeration(self):
        inst = seeded_instance_with_forbidden(4)
        rs = embed(inst)
        index = RegionIndex(inst, rs, 512)
        for a1, a2 in itertools.combinations(inst.vertices, 2):
            # An index asked for this pair alone builds the same regions.
            assert index.regions(a1, a2) == RegionIndex(inst, rs, 512).regions(a1, a2)
            assert index.regions(a1, a2) is index.regions(a1, a2)

    def test_negative_cap_refused(self):
        inst = cap_probe_instance()
        with pytest.raises(ValueError):
            RegionIndex(inst, embed(inst), -1)


class TestEnumerateCandidateRegions:
    """Candidate regions of one anchor pair, read through ``RegionIndex.regions``."""

    def test_negative_cap_refused(self):
        inst = cap_probe_instance()
        assert len(index_of(inst).regions(0, 2)) == 5
        with pytest.raises(ValueError):
            index_of(inst, -1)

    def test_empty_interior_region_returned(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        regions = index_of(inst).regions(0, 1)
        assert len(regions) == 1
        assert regions[0].interior == frozenset()
        assert regions[0].core == frozenset()

    def test_undominated_side_rejected(self):
        # interior vertex with demand 3 cannot be covered by two anchors
        inst = build(5, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1)], {4: 3})
        regions = index_of(inst).regions(0, 1)
        assert all(4 not in r.interior for r in regions)

    def test_worst_case_region_is_unique_and_maximal(self):
        inst = worst_case_region_instance()
        regions = index_of(inst).regions(0, 4)
        assert len(regions) == 1
        region = regions[0]
        assert len(region.interior) == 15
        assert region.crosslinks  # the three central vertices
        assert len(region.boundary | region.interior) == 23

    def test_anchors_dominate_interior(self):
        for seed in range(25):
            inst = corpus_instance(seed, max_n=10)
            if inst.n < 4:
                continue
            index = index_of(inst)
            ids = inst.vertices
            for i, a1 in enumerate(ids):
                for a2 in ids[i + 1:]:
                    for region in index.regions(a1, a2):
                        assert dominates(inst, {a1, a2}, region.interior)


class TestRegionClasses:
    def test_all_low_demand_boundary_means_no_high_sets(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {2: 1, 3: 1})
        region = index_of(inst).regions(0, 1)[0]
        assert region.high_boundary == frozenset()
        assert region.crosslinks == frozenset()

    def test_interior_touching_boundary_is_fringe(self):
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (4, 2)]
        inst = build(5, edges, {4: 2})
        regions = index_of(inst).regions(0, 1)
        region = next(r for r in regions if 4 in r.interior)
        assert region.fringe == {4}
        assert region.core == frozenset()

    def test_worst_case_sets_match_figure(self):
        inst = worst_case_region_instance()
        region = index_of(inst).regions(0, 4)[0]
        assert region.high_boundary == {1, 5}
        assert region.crosslinks == {8, 9, 10}
        assert region.core == {11, 15, 17, 21}
        assert 13 in region.fringe and 19 in region.fringe


class TestRule6:
    def test_high_boundary_neighbor_protected(self):
        inst = worst_case_region_instance()
        region = index_of(inst).regions(0, 4)[0]
        rule6(inst, region)
        assert 9 not in inst.forbidden  # adjacent to both high-demand boundary vertices

    def test_core_dominator_protected_and_others_colored(self):
        inst = worst_case_region_instance()
        region = index_of(inst).regions(0, 4)[0]
        events = rule6(inst, region)
        blued = {v for ev in events for v in ev.newly_blue}
        assert blued == {11, 15, 16, 17, 21, 22}
        for v in blued:
            assert not dominates(inst, {v}, region.core)

    def test_events_only_color(self):
        inst = worst_case_region_instance()
        n, m = inst.n, inst.m
        demands = dict(inst.demand)
        region = index_of(inst).regions(0, 4)[0]
        for ev in rule6(inst, region):
            assert not ev.removed_vertices and not ev.removed_edges
            assert not ev.demand_deltas and ev.budget_delta == 0
        assert (inst.n, inst.m) == (n, m) and inst.demand == demands


class TestRule7:
    def test_paired_coverers_exempt(self):
        # the two deep helpers each cover an anchor's core share with a crosslink
        inst = worst_case_region_instance()
        region = index_of(inst).regions(0, 4)[0]
        events = rule7(inst, region)
        blued = {v for ev in events for v in ev.newly_blue}
        assert 13 not in blued and 19 not in blued  # w and u of the drawing
        assert 12 in blued and 18 in blued

    def test_crosslink_exempt(self):
        inst = worst_case_region_instance()
        region = index_of(inst).regions(0, 4)[0]
        blued = {v for ev in rule7(inst, region) for v in ev.newly_blue}
        assert not blued & {8, 9, 10}

    def test_noop_without_crosslinks(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {2: 1, 3: 1})
        region = index_of(inst).regions(0, 1)[0]
        assert rule7(inst, region) == []


def k24_instance():
    # anchors 0, 1; middles 2..5 all demand 1; anchors demand 2 block the
    # general rules, so only the region machinery acts
    edges = [(0, v) for v in range(2, 6)] + [(1, v) for v in range(2, 6)]
    return build(6, edges, {0: 2, 1: 2, 2: 1, 3: 1, 4: 1, 5: 1}, k=2)


class TestRule8:
    def test_buried_middles_colored(self):
        # every middle is in the core of some maximal region, and no pair of
        # non-adjacent demand-1 middles covers the other, so all get colored
        inst = k24_instance()
        regions = index_of(inst).regions(0, 1)
        fired = []
        for region in regions:
            fired += rule8(inst, region)
        blued = {v for ev in fired for v in ev.newly_blue}
        assert blued == {2, 3, 4, 5}

    def test_answer_preserved(self):
        inst = k24_instance()
        before = oracle_answer(inst)
        report = run_fixpoint(inst)
        # inside the fixpoint, rule 6 already handles crosslink-free regions
        # whose high-demand boundary is empty
        assert report.rule_fire_counts.get(6) == 4
        assert oracle_answer(inst) == before

    def test_fires_inside_fixpoint_next_to_high_boundary(self):
        # type-1 plus type-3 boundary with one demand-2 path vertex: the
        # Y-adjacent interior vertex escapes rule 6 but not rule 8
        edges = [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4),
                 (0, 5), (4, 5), (0, 6), (6, 7), (0, 7), (1, 7)]
        inst = build(8, edges, {0: 2, 1: 2, 2: 1, 3: 1, 4: 2, 5: 1, 6: 1, 7: 2}, k=3)
        before = oracle_answer(inst)
        report = run_fixpoint(inst)
        assert report.rule_fire_counts.get(8) == 1
        assert 5 in report.final_instance.forbidden
        assert oracle_answer(report.final_instance) == before

    def test_partner_near_high_boundary_exempts(self):
        # 5 cannot satisfy the core alone, but together with a neighbor of
        # the high-demand boundary vertex it can, so it stays selectable
        edges = [(0, 2), (1, 2), (0, 3), (3, 4), (4, 1), (0, 5), (4, 5), (0, 6), (1, 6), (5, 6)]
        inst = build(7, edges, {0: 2, 1: 2, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}, k=3)
        before = oracle_answer(inst)
        for region in index_of(inst).regions(0, 1):
            if region.core and not region.crosslinks and 5 in region.interior:
                assert not dominates(inst, {5}, region.core)
                assert rule6(inst, region) == []
                assert rule8(inst, region) == []
        assert not inst.forbidden
        assert oracle_answer(inst) == before

    def test_sole_core_vertex_is_own_dominator(self):
        # with one buried vertex the member convention exempts it
        edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1)]
        inst = build(5, edges, {2: 1, 3: 1, 4: 1}, k=2)
        for region in index_of(inst).regions(0, 1):
            assert rule8(inst, region) == []
        assert not inst.forbidden


class TestEmbeddingFreshness:
    def test_stale_embedding_rejected(self):
        from vecdom import StaleEmbeddingError

        inst = worst_case_region_instance()
        rs = embed(inst)
        inst.delete_edge(8, 1)
        with pytest.raises(StaleEmbeddingError):
            RegionIndex(inst, rs, 512)


class TestRegionRulesInsideFixpoint:
    def test_region_events_are_pure_colorings(self):
        inst = worst_case_region_instance()
        report = run_fixpoint(inst)
        for ev in report.events:
            if ev.rule_id in (6, 7, 8):
                assert ev.newly_blue
                assert not ev.removed_vertices and not ev.removed_edges
                assert not ev.demand_deltas and ev.budget_delta == 0

    def test_worst_case_answers_preserved_across_budgets(self):
        for k in (2, 3, 4, 5):
            inst = worst_case_region_instance(k)
            direct = solve_bb(inst.copy()).answer
            assert solve_bb(kernel_of(run_fixpoint(inst))).answer == direct

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_fixpoints_with_and_without_regions_agree_with_oracle(self, seed):
        inst = corpus_instance(seed, max_n=10)
        expected = oracle_answer(inst)
        with_regions = inst.copy()
        run_fixpoint(with_regions, FixpointOptions())
        without = inst.copy()
        run_fixpoint(without, FixpointOptions(kernel_certificate=False, enable_region_rules=False))
        for reduced in (with_regions, without):
            assert oracle_answer(reduced) == expected
