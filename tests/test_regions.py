"""Typed paths, candidate regions, and the region coloring rules 6-8."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import vecdom.regions
from vecdom import (
    AnnotatedInstance,
    CandidateRegion,
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
    solve_brute,
    FixpointOptions,
    cycle_sides,
)
from vecdom.regions import RegionIndex, classify_path
from vecdom.rules import _region_phase
from vecdom.selftest import check_instance, corpus_instance, evaluate_instance, oracle_answer
from vecdom.toolkit import generate_planar, kernel_report, make_special_case

from conftest import build, worst_case_region_instance


def cap_probe_instance():
    """Anchors 0 and 2 of this triangulation are joined by 14 typed paths."""
    return make_special_case(generate_planar(12, 1.0, 3), "r:1")


def index_of(inst, cap=512):
    return RegionIndex(inst, embed(inst), cap)


def interiors_of(index, a1, a2):
    """The pair's typed-path interiors, read through ``typed_paths``."""
    return index.typed_paths(a1).get(a2, ([], False))[0]


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


@pytest.mark.parametrize("path, a1, a2, message", [
    ((0, 1, 2, 1, 3), 0, 3, "path (0, 1, 2, 1, 3) repeats a vertex"),
    ((0, 1, 0), 0, 0, "path (0, 1, 0) does not run from 0 to 0"),
])
def test_classify_path_refuses_a_path_that_is_not_simple(path, a1, a2, message):
    inst = build(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(MalformedPathError) as err:
        classify_path(inst, path, a1, a2)
    assert str(err.value) == message


class TestEnumerateBoundaryPaths:
    """Typed-path interiors of one anchor pair, read through ``RegionIndex.typed_paths``."""

    def test_plain_adjacency_is_not_typed(self):
        inst = build(2, [(0, 1)])
        assert interiors_of(index_of(inst), 0, 1) == []

    def test_two_common_neighbors_two_type_one_paths(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        interiors = interiors_of(index_of(inst), 0, 1)
        assert len(interiors) == 2
        assert all(path_types(inst, 0, 1, inner) == {1} for inner in interiors)

    def test_worst_case_boundary_paths_found_both_ways(self):
        inst = worst_case_region_instance()
        interiors = interiors_of(index_of(inst), 0, 4)
        four_edge = {inner for inner in interiors if len(inner) == 3}
        assert (1, 2, 3) in four_edge   # typed only when read from anchor 4
        assert (7, 6, 5) in four_edge
        assert all(path_types(inst, 0, 4, inner) == {2} for inner in four_edge)

    def test_deterministic_order(self):
        inst = generate_planar(12, 0.9, 3)
        a, b = inst.vertices[0], inst.vertices[5]
        assert interiors_of(index_of(inst), a, b) == interiors_of(index_of(inst), a, b)

    def test_negative_cap_refused(self):
        inst = cap_probe_instance()
        interiors = interiors_of(index_of(inst), 0, 2)
        assert len(interiors) == 14
        assert interiors_of(index_of(inst, 13), 0, 2) == interiors[:13]
        with pytest.raises(ValueError):
            index_of(inst, -1)

    @pytest.mark.parametrize("pair", [(99, 0), (0, 99)])
    def test_unknown_anchor_refused(self, pair):
        index = index_of(cap_probe_instance())
        with pytest.raises(UnknownVertexError):
            index.regions(*pair)
        with pytest.raises(UnknownVertexError):
            index.typed_paths(max(pair))

    @pytest.mark.parametrize("pair", [(1, 0), (0, 0)])
    def test_unordered_pair_refused(self, pair):
        index = index_of(cap_probe_instance())
        with pytest.raises(MalformedPathError):
            index.regions(*pair)


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
                entry = index.typed_paths(a1).get(a2)
                assert (entry is not None) == bool(expected)
                interiors, capped = entry or ([], False)
                assert interiors == expected[:cap], (seed, a1, a2)
                assert capped == (len(expected) > cap)
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
                for inner in interiors_of(index, a1, a2):
                    assert path_types(inst, a1, a2, inner) == expected[len(inner)], (seed, inner)

    def test_regions_match_the_single_pair_enumeration(self):
        inst = seeded_instance_with_forbidden(4)
        rs = embed(inst)
        index = RegionIndex(inst, rs, 512)
        for a1, a2 in itertools.combinations(inst.vertices, 2):
            # An index asked for this pair alone builds the same regions.
            assert index.regions(a1, a2) == RegionIndex(inst, rs, 512).regions(a1, a2)
            assert index.regions(a1, a2) is index.regions(a1, a2)

    def test_a_pair_with_fewer_than_two_typed_paths_builds_nothing(self, monkeypatch):
        built = []
        real = vecdom.regions._regions
        monkeypatch.setattr(
            vecdom.regions, "_regions", lambda *args: built.append(args[2:4]) or real(*args)
        )
        inst = make_special_case(generate_planar(16, 0.7, 3), "random:2", seed=3)
        index = RegionIndex(inst, embed(inst), 512)
        sizes = set()
        for a1, a2 in itertools.combinations(inst.vertices, 2):
            count = len(interiors_of(index, a1, a2))
            if count < 2:
                sizes.add(count)
                assert index.regions(a1, a2) == []
        assert sizes == {0, 1}
        assert built == [] and index._regions == {}

    def test_negative_cap_refused(self):
        inst = cap_probe_instance()
        with pytest.raises(ValueError):
            RegionIndex(inst, embed(inst), -1)


def all_pairs_regions(instance, rs, a1, a2, interiors):
    """The pair's maximal candidate regions by one ``cycle_sides`` call per
    internally disjoint pair of its typed paths, every side kept whose
    interior the anchors dominate; the reference for ``RegionIndex``."""
    adj = instance._adj
    d = instance.demand
    anchors = {a1, a2}

    def keep(w):
        return d[w] <= len(adj[w] & anchors)

    sides = set()
    for i, pi in enumerate(interiors):
        for pj in interiors[i + 1:]:
            if set(pi) & set(pj):
                continue
            cycle = (a1, *pi, a2, *reversed(pj))
            for inside in cycle_sides(rs, cycle, keep):
                if inside is not None:
                    sides.add((frozenset(cycle) | inside, inside))
    maximal = sorted(
        (
            (closed, inside)
            for closed, inside in sides
            if not any(closed < other for other, _ in sides)
        ),
        key=lambda item: (sorted(item[0]), sorted(item[1])),
    )
    out = []
    for closed, inside in maximal:
        boundary = closed - inside
        internal_boundary = boundary - anchors
        high_boundary = frozenset(v for v in internal_boundary if d[v] >= 2)
        fringe = frozenset(v for v in inside if adj[v] & internal_boundary)
        crosslinks = frozenset(v for v in closed if len(adj[v] & high_boundary) >= 2)
        out.append(CandidateRegion(
            a1, a2, boundary, inside, high_boundary, fringe, inside - fringe, crosslinks,
        ))
    return out


def two_components(seed):
    """A triangulation and a sparser planar graph side by side, plus an
    isolated vertex, with random demands."""
    a = generate_planar(12, 1.0, seed)
    b = generate_planar(8, 0.9, 50 + seed)
    vertices = a.vertices + [a.n + v for v in b.vertices] + [a.n + b.n]
    edges = a.edges() + [(a.n + u, a.n + v) for u, v in b.edges()]
    inst = AnnotatedInstance(vertices, edges, {}, budget=4)
    return make_special_case(inst, "random:2", seed=seed)


def region_graphs():
    """Maximal planar ``pids`` graphs at n=20 with the region benchmark's
    budget, corpus seeds, graphs of two components, and the two drawn
    region examples."""
    for seed in range(4):
        inst = make_special_case(generate_planar(20, 1.0, seed), "pids")
        inst.budget = max(5, max(inst.demand.values()))
        yield f"pids-20/{seed}", inst
    for seed in range(0, 120, 4):
        yield f"corpus/{seed}", corpus_instance(seed)
    for seed in range(4):
        yield f"two-components/{seed}", two_components(seed)
    yield "worst-case", worst_case_region_instance()
    yield "k24", k24_instance()


CAPS = (0, 1, 2, 512)


class TestRegionsAgainstAllPairs:
    @pytest.mark.parametrize("cap", CAPS)
    def test_phase_and_report_regions_equal_the_all_pairs_loop(self, cap):
        shared = regions_seen = 0
        for name, inst in region_graphs():
            rs = embed(inst)
            index = RegionIndex(inst, rs, cap)
            # The phase builds some pairs and skips the rest; what the stats
            # then read is built on demand.
            _region_phase(inst.copy(), index)
            for a1, a2 in itertools.combinations(inst.vertices, 2):
                interiors = interiors_of(index, a1, a2)
                expected = all_pairs_regions(inst, rs, a1, a2, interiors)
                built = index.regions(a1, a2) if len(interiors) > 1 else []
                assert built == expected, (name, cap, a1, a2)
                regions_seen += len(expected)
                shared += any(
                    set(pi) & set(pj) for pi, pj in itertools.combinations(interiors, 2)
                )
        assert (shared > 50) == (cap > 1)
        assert (regions_seen > 500) == (cap > 1)

    @pytest.mark.parametrize("cap", CAPS)
    def test_stats_count_the_regions_of_the_all_pairs_loop(self, cap):
        for name, inst in region_graphs():
            report = run_fixpoint(inst.copy(), FixpointOptions(max_paths_per_pair=cap))
            stats = kernel_report(inst, report)
            kernel = kernel_of(report)
            rs = embed(kernel)
            index = RegionIndex(kernel, rs, cap)
            regions = [
                region
                for a1, a2 in itertools.combinations(kernel.vertices, 2)
                for region in all_pairs_regions(kernel, rs, a1, a2, interiors_of(index, a1, a2))
            ]
            assert stats.region_count_examined == len(regions), (name, cap)
            assert stats.max_region_interior == max(
                (len(r.interior) for r in regions), default=0
            ), (name, cap)


def colorable(inst, region):
    return any(inst.demand[v] for v in region.core)


def event_log(events):
    """Events as comparable tuples; events compare by identity."""
    return [
        (ev.rule_id, ev.removed_vertices, ev.removed_edges, sorted(ev.demand_deltas.items()),
         ev.budget_delta, ev.newly_blue, ev.status_after)
        for ev in events
    ]


class TestPhaseSkipsOnlyPairsThatCannotColor:
    def test_every_region_with_a_demanding_core_passes_the_test(self):
        demanding = refused_with_regions = 0
        for name, inst in region_graphs():
            rs = embed(inst)
            index = RegionIndex(inst, rs, 512)
            for a1, a2 in itertools.combinations(inst.vertices, 2):
                regions = all_pairs_regions(inst, rs, a1, a2, interiors_of(index, a1, a2))
                if any(colorable(inst, region) for region in regions):
                    assert index.may_color(a1, a2), (name, a1, a2)
                    demanding += 1
                elif regions and not index.may_color(a1, a2):
                    refused_with_regions += 1
        assert demanding > 50 and refused_with_regions > 500

    @pytest.mark.parametrize("cap", CAPS)
    def test_accepting_every_pair_changes_no_event(self, cap, monkeypatch):
        colored = 0
        for name, inst in region_graphs():
            outcomes = []
            for accept_all in (False, True):
                if accept_all:
                    monkeypatch.setattr(RegionIndex, "may_color", lambda self, a1, a2: True)
                phase_inst = inst.copy()
                events, caps_hit = _region_phase(
                    phase_inst, RegionIndex(phase_inst, embed(phase_inst), cap)
                )
                report = run_fixpoint(inst.copy(), FixpointOptions(max_paths_per_pair=cap))
                outcomes.append((
                    event_log(events), caps_hit, event_log(report.events), report.caps_hit,
                    report.final_instance,
                ))
            monkeypatch.undo()
            assert outcomes[0] == outcomes[1], (name, cap)
            colored += len(outcomes[0][0])
        assert (colored > 20) == (cap > 1)


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


class TestColoringNeedsSelectableAnchorsAndHighBoundary:
    """Rules 6-8 color nothing in a region whose anchor or high-demand
    boundary vertex is blue, so they keep the answer for any forbidden set."""

    def test_blue_anchor_stops_rule6(self):
        inst = make_special_case(generate_planar(6, 0.85, 2230), "pids")
        inst.budget = 4
        region = index_of(inst).regions(2, 3)[1]
        assert region.interior == {0, 5} and region.core == {0, 5}
        inst.forbidden = {2}
        assert solve_brute(inst).answer
        # Coloring 0 and 5 here would leave no solution of size 4.
        assert rule6(inst, region) == []
        assert inst.forbidden == {2}

    def test_rules_keep_the_answer_on_every_region(self):
        profiles = ("pids", "r:1", "random:2", "bdvd:1")
        regions = fired = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(5, 11)
            inst = make_special_case(
                generate_planar(n, rng.choice((0.8, 0.9, 1.0)), seed), profiles[seed % 4], seed=seed
            )
            inst.budget = rng.randint(1, n // 2)
            index = index_of(inst)
            for a1, a2 in itertools.combinations(inst.vertices, 2):
                for region in index.regions(a1, a2):
                    regions += 1
                    before = inst.copy()
                    before.forbidden = {v for v in inst.vertices if rng.random() < 0.25}
                    after = before.copy()
                    if rule6(after, region) + rule7(after, region) + rule8(after, region):
                        fired += 1
                        assert solve_brute(after).answer == solve_brute(before).answer, (
                            seed, a1, a2, sorted(before.forbidden)
                        )
        assert (regions, fired) == (13984, 737)


# Runs ``(n, density, graph seed, profile, k)`` in which rule 7 or rule 8
# fires, found by a seeded search over n 8-16, densities 0.8-1.0, seven
# profiles and k 2-4; the instance is
# ``make_special_case(generate_planar(n, density, seed), profile, seed=seed)``
# with budget k.  Rule 8 fires in 1 of the identity set's 1345 runs.  The
# last two rule 7 runs are YES instances that a rule 7 exempting only its
# crosslinks turns NO.
RULE7_RUNS = [
    (9, 0.9, 5, "alpha:1/3", 3),
    (11, 0.9, 2, "alpha:1/3", 3),
    (13, 0.9, 0, "alpha:1/3", 3),
    (16, 0.8, 0, "alpha:1/3", 3),
    (9, 0.8, 8, "pids", 3),
    (11, 0.8, 2, "r:2", 3),
    (14, 1.0, 15, "r:2", 2),
    (15, 1.0, 2, "r:2", 4),
    (9, 0.9, 5, "random:2", 3),
    (11, 0.9, 11, "random:2", 3),
    (13, 1.0, 5, "random:2", 3),
    (15, 1.0, 5, "random:2", 4),
    (14, 0.95, 16, "random:2", 3),
    (15, 0.85, 16, "random:2", 3),
]
RULE8_RUNS = [
    (9, 0.85, 30, "alpha:1/3", 3),
    (10, 0.8, 9, "alpha:1/3", 3),
    (10, 0.9, 0, "alpha:1/3", 4),
    (10, 0.8, 1820, "alpha:1/3", 2),
    (11, 0.95, 8, "alpha:1/3", 3),
    (12, 0.85, 2, "alpha:1/3", 3),
    (12, 0.85, 6, "bdvd:2", 4),
    (12, 0.85, 35, "alpha:1/3", 4),
    (14, 1.0, 12, "random:2", 2),
    (15, 0.85, 30, "random:2", 3),
    (16, 0.8, 35, "random:2", 4),
    (16, 0.85, 17, "alpha:1/3", 4),
]

# Runs in which rule 6 fires, from a seeded search over n 8-16, densities
# 0.8-1.0, seven profiles, graph seeds 0-14 and k 2-4 (rule 6 fired in 719
# of its 4,725 runs), plus ``(10, 0.8, 23, "r:1", 2)``.  The first is the
# one run of that search that a rule 6 exempting nothing turns from YES to
# NO (at event 2 of its log); the rest mix open YES, open NO and decided runs.
RULE6_RUNS = [
    (12, 0.8, 4, "alpha:1/3", 3),
    (14, 0.8, 0, "alpha:1/3", 3),
    (10, 0.8, 0, "pids", 4),
    (12, 0.8, 3, "pids", 4),
    (16, 0.9, 2, "pids", 4),
    (10, 0.8, 23, "r:1", 2),
    (14, 1.0, 2, "r:1", 2),
    (12, 1.0, 2, "r:2", 3),
    (14, 1.0, 2, "r:2", 4),
    (10, 0.8, 11, "random:2", 3),
    (10, 1.0, 5, "random:2", 2),
    (10, 0.8, 1, "bdvd:2", 4),
    (12, 0.8, 10, "bdvd:2", 4),
]


class TestPinnedRunsOfRules7And8:
    """Each pinned run still fires its rule, and the selftest battery finds
    nothing wrong with it: every event keeps the oracle's answer, the
    replay reproduces the kernel, and both kernels answer as the oracle."""

    @pytest.mark.parametrize(
        "rule_id, run",
        [(7, run) for run in RULE7_RUNS]
        + [(8, run) for run in RULE8_RUNS]
        + [(6, run) for run in RULE6_RUNS],
    )
    def test_rule_fires_and_every_event_keeps_the_answer(self, rule_id, run):
        n, density, seed, profile, k = run
        inst = make_special_case(generate_planar(n, density, seed), profile, seed=seed)
        inst.budget = k
        record = check_instance(inst, seed)
        assert record.report_on.rule_fire_counts.get(rule_id, 0) > 0
        assert (record.event_failures, record.failures) == ([], [])


class TestEmbeddingFreshness:
    def test_stale_embedding_rejected(self):
        from vecdom import StaleEmbeddingError

        inst = worst_case_region_instance()
        rs = embed(inst)
        inst.delete_edge(8, 1)
        with pytest.raises(StaleEmbeddingError):
            RegionIndex(inst, rs, 512)

    def test_same_degrees_other_edges_rejected(self):
        from vecdom import StaleEmbeddingError

        # The 4-cycles 0-1-2-3-0 and 0-2-1-3-0: the same vertices and the
        # same degrees, but not the same edges.
        c4 = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        swapped = build(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert embed(c4).describes(c4)
        assert not embed(c4).describes(swapped)
        with pytest.raises(StaleEmbeddingError):
            RegionIndex(swapped, embed(c4), 512)


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
        record = evaluate_instance(seed, max_n=10)
        assert (record.event_failures, record.failures) == ([], [])
