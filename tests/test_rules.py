"""Reduction rules 1-5 and 9-13, the fixpoint engine, and event replay."""

import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from vecdom import (
    FixpointOptions,
    InvalidInstanceError,
    NonPlanarError,
    ReductionEvent,
    Status,
    neighborhood,
    potential,
    replay,
    rule1,
    rule2,
    rule3,
    rule4,
    rule5,
    rule9,
    rule10,
    rule11,
    rule12,
    rule13,
    run_fixpoint,
    solve_brute,
    validate,
)
from vecdom.instance import apply, force_into_solution
from vecdom.rules import _LOCAL_RULES
from vecdom.selftest import check_instance, corpus_instance, evaluate_instance, oracle_answer
from vecdom.toolkit import generate_planar, make_special_case

from conftest import build


def answers_match(instance, rule) -> bool:
    """Apply one rule; the status-aware oracle answer must not move."""
    before = oracle_answer(instance)
    rule(instance)
    return before == oracle_answer(instance)


class TestRule1:
    def test_zero_zero_edge_removed(self):
        inst = build(2, [(0, 1)])
        rule1(inst)
        assert inst.m == 0

    def test_mixed_edge_kept(self):
        inst = build(2, [(0, 1)], {1: 1})
        rule1(inst)
        assert inst.has_edge(0, 1)

    def test_zero_triangle_fully_stripped(self):
        inst = build(3, [(0, 1), (1, 2), (0, 2)])
        events = rule1(inst)
        assert inst.m == 0 and len(events) == 3


class TestRule2:
    def test_isolated_zero_removed(self):
        inst = build(1)
        rule2(inst)
        assert inst.n == 0

    def test_isolated_demanding_kept(self):
        inst = build(1, demand={0: 2})
        rule2(inst)
        assert inst.n == 1

    def test_cascade_after_rule1(self):
        inst = build(3, [(0, 1), (1, 2), (0, 2)])
        rule1(inst)
        rule2(inst)
        assert inst.n == 0

    def test_blue_isolated_zero_removed(self):
        inst = build(1, forbidden=[0])
        rule2(inst)
        assert inst.n == 0


class TestRule3:
    def test_demand_above_degree_forced(self):
        inst = build(3, [(0, 1), (0, 2)], {0: 3}, k=5)
        events = rule3(inst)
        assert not inst.has_vertex(0)
        assert inst.budget == 4
        assert [ev.rule_id for ev in events] == [3]

    def test_demand_above_budget_forced(self):
        inst = build(3, [(0, 1), (0, 2)], {0: 2}, k=1)
        rule3(inst)
        assert not inst.has_vertex(0)
        assert inst.budget == 0

    def test_forcing_cascade_confirmed_by_oracle(self):
        # 2 only becomes a violator once forcing 0 lowers the budget to 1
        def fresh():
            return build(4, [(0, 1), (2, 1), (2, 3)], {0: 5, 2: 2}, k=2)

        probe = fresh()
        assert probe.demand[2] <= probe.budget  # not violating up front
        inst = fresh()
        before = oracle_answer(inst)
        events = rule3(inst)
        assert len(events) == 2
        assert not inst.has_vertex(0) and not inst.has_vertex(2)
        assert oracle_answer(inst) == before is True

    def test_forbidden_violator_decides_no(self):
        inst = build(2, [(0, 1)], {0: 2}, k=4, forbidden=[0])
        rule3(inst)
        assert inst.status is Status.DECIDED_NO

    def test_backward_cascade_waits_for_the_fixpoint(self):
        # forcing 5 lowers the budget to 1, which makes the earlier vertex 0
        # a violator: one pass has left 0 behind, the fixpoint's next batch
        # forces it
        def fresh():
            return build(6, [(0, 1), (0, 2), (5, 4), (3, 4)], {0: 2, 5: 3}, k=2)

        inst = fresh()
        events = rule3(inst)
        assert [sorted(ev.removed_vertices) for ev in events] == [[5]]
        assert inst.has_vertex(0) and inst.budget == 1

        inst = fresh()
        report = run_fixpoint(inst)
        forced = [v for ev in report.events if ev.rule_id == 3 for v in ev.removed_vertices]
        assert forced == [5, 0]
        assert oracle_answer(inst) == oracle_answer(fresh())


class TestRule4:
    def test_figure_instance_drops_edge_to_demand_one_neighbor(self):
        # x=0 y=1 a=2 v=3 z=4 t=5 b=6; witness 2 sees all of N(3)={1, 6}
        edges = [(0, 1), (2, 1), (2, 0), (2, 4), (2, 6), (3, 1), (3, 6), (6, 4), (6, 5), (5, 4)]
        inst = build(7, edges, {3: 0, 6: 1, 1: 2, 0: 1, 4: 1, 5: 1}, k=2)
        rule4(inst)
        assert not inst.has_edge(3, 6)
        assert inst.has_edge(3, 1)

    def test_pendant_zero_vertex_isolated_then_removed(self):
        inst = build(2, [(0, 1)], {1: 0})
        rule4(inst)
        assert inst.m == 0
        rule2(inst)
        assert inst.n == 0

    def test_no_witness_no_change(self):
        # N(2) = {0, 4} and nobody sees both
        inst = build(5, [(0, 1), (3, 4), (2, 0), (2, 4)], {2: 0, 0: 1, 4: 1, 1: 2, 3: 2})
        before = inst.edges()
        rule4(inst)
        assert inst.edges() == before

    def test_forbidden_witness_skipped(self):
        # deleting the 0-1 edge with a blue witness would flip the answer
        inst = build(3, [(0, 1), (2, 1)], {0: 0, 1: 1, 2: 0}, k=1, forbidden=[2, 1])
        assert oracle_answer(inst) is True
        assert answers_match(inst, rule4)
        assert inst.has_edge(0, 1)


class TestRule5:
    def test_star_center_forced(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {1: 1, 2: 1, 3: 1}, k=1)
        rule5(inst)
        assert not inst.has_vertex(0)
        assert inst.budget == 0
        assert all(d == 0 for d in inst.demand.values())

    def test_high_demand_neighbor_blocks(self):
        inst = build(3, [(0, 1), (1, 2)], {1: 1, 2: 2}, k=3)
        rule5(inst)
        assert inst.n == 3

    def test_forbidden_witness_skipped(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {1: 1, 2: 1, 3: 1}, k=1, forbidden=[0])
        before = oracle_answer(inst)
        rule5(inst)
        assert inst.has_vertex(0)
        assert oracle_answer(inst) == before

    def test_six_vertex_firing_keeps_answer(self):
        # fan around 0: firing the rule then solving equals solving directly
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)]
        inst = build(6, edges, {1: 1, 2: 1, 3: 1, 5: 1}, k=2)
        direct = solve_brute(inst).answer
        events = rule5(inst)
        assert events and events[0].removed_vertices == {0}
        assert solve_brute(inst).answer == direct is True

    def test_cascade_to_an_earlier_vertex_waits_for_the_fixpoint(self):
        # forcing witness 2 makes 1 a witness for a vertex the pass has
        # already left behind, so one pass forces only 2
        inst = corpus_instance(95, max_n=10)
        events = rule5(inst)
        assert [sorted(ev.removed_vertices) for ev in events] == [[2]]

        inst = corpus_instance(95, max_n=10)
        before = oracle_answer(inst)
        report = run_fixpoint(inst)
        forced = [v for ev in report.events if ev.rule_id == 5 for v in ev.removed_vertices]
        assert forced == [2, 1]
        assert oracle_answer(inst) == before

    @given(st.integers(0, 3000))
    @settings(max_examples=80, deadline=None)
    def test_answer_preserved(self, seed):
        inst = corpus_instance(seed, max_n=10)
        assert answers_match(inst, rule5)


class TestRule9:
    def test_pendant_demand_one_colored(self):
        inst = build(2, [(0, 1)], {0: 1, 1: 0}, k=1)
        rule9(inst)
        assert 0 in inst.forbidden

    def test_two_high_demand_fallbacks_block(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {0: 1, 2: 2, 3: 2}, k=2)
        rule9(inst)
        assert 0 not in inst.forbidden

    @given(st.integers(0, 10_000))
    @settings(max_examples=500, deadline=None)
    def test_answer_preserved_across_500_instances(self, seed):
        inst = corpus_instance(seed, max_n=10)
        assert answers_match(inst, rule9)


class TestRule10:
    def test_blue_blue_edge_deleted(self):
        inst = build(2, [(0, 1)], {0: 1, 1: 1}, forbidden=[0, 1])
        rule10(inst)
        assert inst.m == 0

    def test_blue_zero_vertex_deleted_with_edges(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {1: 1}, forbidden=[0])
        rule10(inst)
        assert not inst.has_vertex(0)
        assert inst.m == 0

    def test_blue_nonblue_edge_kept(self):
        inst = build(2, [(0, 1)], {0: 1, 1: 1}, forbidden=[0])
        rule10(inst)
        assert inst.has_edge(0, 1)


class TestRule11:
    def test_triangle_with_blue_apex(self):
        inst = build(3, [(0, 1), (0, 2), (1, 2)], {0: 1, 1: 2, 2: 2}, forbidden=[0])
        rule11(inst)
        assert not inst.has_edge(1, 2)
        assert inst.demand[1] == inst.demand[2] == 1

    def test_degree_three_blue_untouched(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3), (1, 2)], {0: 1}, forbidden=[0])
        rule11(inst)
        assert inst.has_edge(1, 2)

    def test_zero_demand_blue_untouched(self):
        # a demand-free blue vertex pins nothing; the shortcut would be unsound
        inst = build(3, [(0, 1), (0, 2), (1, 2)], {1: 1, 2: 1}, k=1, forbidden=[0])
        assert answers_match(inst, rule11)
        assert inst.has_edge(1, 2)

    def test_answer_preserved_where_rule_fires(self):
        fired = 0
        for seed in range(4000):
            inst = corpus_instance(seed, max_n=8)
            # plant a blue degree-2 vertex pattern when possible
            for v in inst.vertices:
                if inst.degree(v) == 2 and inst.demand[v] >= 1:
                    u, w = sorted(inst.neighbors(v))
                    if inst.has_edge(u, w):
                        inst.forbidden.add(v)
                        break
            before = oracle_answer(inst)
            if rule11(inst):
                fired += 1
                assert oracle_answer(inst) == before
            if fired >= 60:
                break
        assert fired >= 60


class TestRule12:
    def test_demand_zeroed(self):
        inst = build(3, [(0, 1), (0, 2), (1, 2)], {0: 1, 1: 1}, forbidden=[0])
        rule12(inst)
        assert inst.demand[1] == 0

    def test_demand_two_not_touched(self):
        inst = build(3, [(0, 1), (0, 2), (1, 2)], {0: 1, 1: 2}, forbidden=[0])
        rule12(inst)
        assert inst.demand[1] == 2

    @given(st.integers(0, 3000))
    @settings(max_examples=120, deadline=None)
    def test_answer_preserved(self, seed):
        inst = corpus_instance(seed, max_n=10)
        for v in inst.vertices:
            if inst.demand[v] >= 1 and inst.degree(v) >= 1:
                inst.forbidden.add(v)
                break
        assert answers_match(inst, rule12)


class TestRule13:
    def test_twin_removed_lowest_kept(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {2: 1, 3: 1})
        rule13(inst)
        assert inst.has_vertex(0) and not inst.has_vertex(1)

    def test_three_twins_two_removed(self):
        edges = [(v, 3) for v in range(3)] + [(v, 4) for v in range(3)]
        inst = build(5, edges, {3: 2, 4: 2})
        events = rule13(inst)
        assert len(events) == 2
        assert inst.has_vertex(0)

    def test_demanding_twin_not_touched(self):
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {1: 1, 2: 1, 3: 1})
        rule13(inst)
        assert inst.n == 4

    def test_forbidden_neighborhood_blocks(self):
        # both common neighbors demand 2: the twins are jointly needed, and
        # with those neighbors blue the swap target disappears
        inst = build(4, [(0, 2), (0, 3), (1, 2), (1, 3)], {2: 2, 3: 2}, k=2, forbidden=[2, 3])
        assert oracle_answer(inst) is True
        assert answers_match(inst, rule13)
        assert inst.n == 4


class TestRunFixpoint:
    def test_all_zero_demand_empties_to_yes(self):
        inst = build(5, [(0, 1), (1, 2), (3, 4)], k=0)
        report = run_fixpoint(inst)
        assert report.final_status is Status.DECIDED_YES
        final = report.final_instance
        assert (final.n, final.m, final.budget) == (0, 0, 0)

    @pytest.mark.parametrize("n, fires", [(202, False), (203, True)])
    def test_kernel_certificate_fires_on_big_rigid_cycle(self, n, fires):
        # demand-2 cycle admits no rule, so size alone decides NO, and only
        # once n exceeds KERNEL_FACTOR * k = 101 * 2
        def cycle():
            return build(n, [(i, (i + 1) % n) for i in range(n)], {v: 2 for v in range(n)}, k=2)

        report = run_fixpoint(cycle())
        if fires:
            assert report.final_status is Status.DECIDED_NO
            assert report.rule_fire_counts == {"kernel_bound": 1}
        else:
            assert report.final_status is Status.OPEN
            assert report.events == []
        from vecdom import solve_bb

        assert not solve_bb(cycle()).answer

    def test_certificate_off_leaves_open(self):
        n = 203
        inst = build(n, [(i, (i + 1) % n) for i in range(n)], {v: 2 for v in range(n)}, k=2)
        report = run_fixpoint(inst, FixpointOptions(kernel_certificate=False))
        assert report.final_status is Status.OPEN
        assert report.final_instance.n == n

    def test_k5_refused_as_non_planar_with_witness(self):
        inst = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)], {0: 1}, k=1)
        with pytest.raises(NonPlanarError) as err:
            run_fixpoint(inst)
        assert err.value.witness_edges

    def test_self_loop_refused_as_invalid(self):
        with pytest.raises(InvalidInstanceError):
            build(3, [(0, 1), (1, 2), (1, 1)], {0: 1}, k=1)

    def test_certificate_requires_region_rules(self):
        with pytest.raises(ValueError):
            FixpointOptions(kernel_certificate=True, enable_region_rules=False)

    def test_certificate_follows_region_rules_by_default(self):
        assert FixpointOptions().kernel_certificate is True
        assert FixpointOptions(enable_region_rules=False).kernel_certificate is False

    def test_negative_round_cap_refused(self):
        with pytest.raises(ValueError):
            FixpointOptions(max_rounds=-1)
        assert FixpointOptions(max_rounds=0).max_rounds == 0

    def test_max_rounds_cap(self):
        inst = build(3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: 1, 2: 1}, k=1)
        report = run_fixpoint(inst, FixpointOptions(kernel_certificate=False,
                                                    enable_region_rules=False, max_rounds=0))
        assert report.max_rounds_hit
        assert report.final_status is Status.OPEN

    def test_round_cap_on_a_finished_local_run_is_no_hit(self):
        # The local rules reach their fixpoint in round 1; with the region
        # rules off nothing is left for a second round, so the cap stopped
        # nothing and the terminal checks decide YES.
        local_only = dict(enable_region_rules=False, kernel_certificate=False)
        full = run_fixpoint(corpus_instance(2), FixpointOptions(**local_only))
        capped = run_fixpoint(corpus_instance(2), FixpointOptions(**local_only, max_rounds=1))
        assert not capped.max_rounds_hit
        assert capped.final_status is full.final_status is Status.DECIDED_YES
        assert len(full.events) == 7
        assert list(map(astuple, capped.events)) == list(map(astuple, full.events))

    def test_round_cap_after_a_phase_that_colors_nothing_is_no_hit(self):
        full = run_fixpoint(corpus_instance(63))
        capped = run_fixpoint(corpus_instance(63), FixpointOptions(max_rounds=2))
        assert not capped.max_rounds_hit
        assert capped.final_status is full.final_status
        assert len(full.events) == 23
        assert list(map(astuple, capped.events)) == list(map(astuple, full.events))

    def test_round_cap_flag_is_conservative(self):
        # The cap is checked before a round runs, so a run capped at round 1
        # reports a hit although its second round would fire nothing: same
        # events and kernel as the uncapped run, only the terminal checks
        # are skipped.  Here both stay OPEN, so no answer is lost.
        full = run_fixpoint(corpus_instance(138))
        capped = run_fixpoint(corpus_instance(138), FixpointOptions(max_rounds=1))
        assert full.rounds == 2 and not full.max_rounds_hit
        assert capped.rounds == 1 and capped.max_rounds_hit
        assert capped.final_status is full.final_status is Status.OPEN
        assert len(full.events) == 1
        assert list(map(astuple, capped.events)) == list(map(astuple, full.events))
        assert capped.final_instance == full.final_instance

    def test_budget_never_increases_and_potential_bounds_events(self):
        for seed in range(60):
            inst = corpus_instance(seed)
            phi = potential(inst)
            k0 = inst.budget
            report = run_fixpoint(inst)
            assert inst.budget <= k0
            assert len(report.events) <= phi + 1  # terminal certificate event is delta-free

    def test_every_event_strictly_lowers_the_potential(self):
        for seed in range(30):
            inst = corpus_instance(seed)
            mirror = inst.copy()
            report = run_fixpoint(inst)
            level = potential(mirror)
            for ev in report.events:
                replay(mirror, [ev])
                after = potential(mirror)
                if ev.rule_id == "kernel_bound":
                    assert after == level
                else:
                    assert after < level, (seed, ev)
                level = after

    def test_replay_reproduces_final_instance(self):
        for seed in range(40):
            record = evaluate_instance(seed)
            assert (record.event_failures, record.failures) == ([], []), seed

    def test_validates_after_every_event(self):
        for seed in range(25):
            inst = corpus_instance(seed)
            mirror = inst.copy()
            report = run_fixpoint(inst)
            for ev in report.events:
                replay(mirror, [ev])
                assert validate(mirror) == []

    def test_decided_instance_untouched(self):
        inst = build(2, [(0, 1)], {1: 1}, k=1)
        inst.status = Status.DECIDED_NO
        report = run_fixpoint(inst)
        assert report.events == []
        assert inst.n == 2

    def test_path_cap_suppresses_certificate(self, path_cap):
        # rigid 203-cycle plus two demand-1 hangers creating three typed
        # paths between vertices 0 and 2; with the cap the enumeration is
        # incomplete, so the size certificate must stay quiet
        def make():
            n = 203
            edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 203), (203, 2), (0, 204), (204, 2)]
            demand = {v: 2 for v in range(n)} | {203: 1, 204: 1}
            return build(205, edges, demand, k=2)

        full = run_fixpoint(make(), FixpointOptions())
        assert not full.caps_hit
        assert full.final_status is Status.DECIDED_NO
        assert full.rule_fire_counts.get("kernel_bound") == 1

        path_cap(1)
        capped = run_fixpoint(make(), FixpointOptions())
        assert capped.caps_hit
        assert capped.final_status is Status.OPEN
        assert "kernel_bound" not in capped.rule_fire_counts


class TestIndexReuseAcrossRounds:
    """Counts ``vecdom.rules.embed`` calls up to each region phase."""

    @pytest.fixture
    def phases(self, monkeypatch):
        import vecdom.rules

        log = {"embeds": 0, "phases": [], "rule10": []}
        real_embed = vecdom.rules.embed
        real_phase = vecdom.rules._region_phase
        real_rule10 = vecdom.rules._LOCAL_RULES[10]

        def embed(instance):
            log["embeds"] += 1
            return real_embed(instance)

        def region_phase(instance, index):
            log["phases"].append((log["embeds"], index))
            return real_phase(instance, index)

        def rule10(instance):
            events = real_rule10(instance)
            if any(ev.removed_edges or ev.removed_vertices for ev in events):
                log["rule10"].append(len(log["phases"]))
            return events

        monkeypatch.setattr(vecdom.rules, "embed", embed)
        monkeypatch.setattr(vecdom.rules, "_region_phase", region_phase)
        monkeypatch.setitem(vecdom.rules._LOCAL_RULES, 10, rule10)
        return log

    @staticmethod
    def triangulation(n, seed, k):
        inst = make_special_case(generate_planar(n, 1.0, seed), "pids")
        inst.budget = k
        return inst

    def test_unchanged_graph_embeds_once(self, phases):
        report = run_fixpoint(self.triangulation(12, 0, 5))
        # Round 1's local rules fire nothing and its region phase only colors,
        # so round 2 stops after its local rules: a second phase on the
        # same graph and demands could color nothing.
        assert set(report.rule_fire_counts) <= {6, 7, 8}
        assert report.rounds == 2 and not report.max_rounds_hit
        [(embeds, index)] = phases["phases"]
        assert (embeds, phases["embeds"]) == (1, 1)
        assert report.region_index is index

    def test_phase_after_rule10_deletion_reembeds(self, phases):
        report = run_fixpoint(self.triangulation(12, 2, 5))
        assert report.rule_fire_counts[10] > 0
        # Rule 10 deletes between the first and the second phase.
        assert phases["rule10"][0] == 1
        embeds = [count for count, _ in phases["phases"]]
        assert embeds[:2] == [1, 2]
        assert phases["phases"][1][1] is not phases["phases"][0][1]

    def test_local_only_and_one_round_runs(self, phases):
        local_only = FixpointOptions(enable_region_rules=False, kernel_certificate=False)
        report = run_fixpoint(self.triangulation(12, 2, 5), local_only)
        assert report.rounds == 1 and report.region_index is None
        assert phases["embeds"] == 1 and phases["phases"] == []

        phases["embeds"] = 0
        report = run_fixpoint(self.triangulation(12, 2, 5), FixpointOptions(max_rounds=1))
        assert report.rounds == 1 and report.max_rounds_hit
        assert phases["embeds"] == 1 and len(phases["phases"]) == 1
        assert report.region_index is phases["phases"][0][1]


class TestStopRule:
    """A run stops when its last index still describes the instance, because
    a region phase over the same graph and demands colors nothing."""

    @staticmethod
    def instances():
        for seed in range(1000):
            yield corpus_instance(seed)
        for seed in range(45):
            inst = make_special_case(generate_planar(20, 1.0, seed), "pids")
            inst.budget = 5
            yield inst

    def test_last_index_describes_the_kernel_and_a_new_phase_colors_nothing(self):
        from vecdom.rules import _region_phase

        checked = 0
        for inst in self.instances():
            report = run_fixpoint(inst)
            if report.final_status is not Status.OPEN:
                continue
            kernel = report.final_instance
            assert report.region_index.describes(kernel)
            assert _region_phase(kernel, report.region_index)[0] == []
            checked += 1
        assert checked > 100


class TestRegionPhaseCapRule:
    """The cap flag covers every pair whose anchors were selectable when the
    phase started, also when the phase colors an anchor before it reaches
    the pair."""

    def test_an_anchor_colored_during_the_phase_keeps_its_pair_cap(self, path_cap):
        from vecdom import embed
        from vecdom.regions import RegionIndex
        from vecdom.rules import _region_phase

        path_cap(3)
        inst = corpus_instance(1756)
        index = RegionIndex(inst, embed(inst))
        capped = [
            (a1, a2)
            for a1 in inst.vertices
            for a2, (_, cut) in index.typed_paths(a1).items()
            if cut
        ]
        assert capped == [(4, 9)]
        # A region of the pair (1, 4) colors all seven, 9 among them.
        events, caps_hit = _region_phase(inst, index)
        assert [ev.rule_id for ev in events] == [6] * 7
        assert sorted(v for ev in events for v in ev.newly_blue) == [0, 2, 3, 6, 7, 8, 9]
        assert caps_hit


class TestRuleSoundnessSweep:
    """Master property: one full fixpoint per seed, every event oracle-checked."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_every_event_preserves_answer(self, seed):
        record = evaluate_instance(seed)
        assert record.event_failures == []
        assert record.failures == []

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_events_preserved_with_random_forbidden_sets(self, seed):
        inst = corpus_instance(seed, max_n=10)
        inst.forbidden = {v for v in inst.vertices if (v * 7 + seed) % 4 == 0}
        record = check_instance(inst, seed)
        assert (record.event_failures, record.failures) == ([], [])

    # Rules 6-8 on regions closed by a cut typed-path list.  The certificate,
    # which a cut list must silence, never fires on these seeds; see
    # test_path_cap_suppresses_certificate.
    @pytest.mark.parametrize("cap", [1, 2])
    def test_the_battery_holds_when_the_path_cap_cuts(self, cap, path_cap):
        path_cap(cap)
        capped = 0
        for seed in range(1000):
            record = evaluate_instance(seed)
            assert (record.event_failures, record.failures) == ([], []), seed
            capped += record.report_on.caps_hit
        assert capped > 100


# The pairwise scans rules 4, 5 and 12 made before they drew their
# candidates from common closed neighborhoods, kept as the oracle the
# candidate scans must match event for event.

def pairwise_rule4(instance):
    events = []
    for v in instance.vertices:
        if instance.demand[v] != 0:
            continue
        for a in instance.vertices:
            if a == v or a in instance.forbidden:
                continue
            nv = instance.neighbors(v)
            if not nv <= (instance.neighbors(a) | {a}):
                continue
            doomed = sorted(u for u in nv if instance.demand[u] == 1)
            if a in nv and a not in doomed:
                doomed.append(a)
            if not doomed:
                continue
            removed = frozenset((v, u) if v <= u else (u, v) for u in doomed)
            events.append(apply(instance, ReductionEvent(rule_id=4, removed_edges=removed)))
    return events


def pairwise_rule5(instance):
    events = []
    for v in instance.vertices:
        if instance.status is not Status.OPEN:
            break
        if not instance.has_vertex(v) or instance.demand[v] != 1:
            continue
        for a in sorted(instance.neighbors(v)):
            if a in instance.forbidden:
                continue
            closed_a = instance.neighbors(a) | {a}
            if all(
                instance.demand[u] <= 1 and neighborhood(instance, u) <= closed_a
                for u in sorted((instance.neighbors(v) | {v}) - {a})
            ):
                events.append(force_into_solution(instance, a, rule_id=5))
                break
    return events


def pairwise_rule12(instance):
    events = []
    for v in instance.vertices:
        if v not in instance.forbidden or instance.demand[v] < 1:
            continue
        nv = instance.neighbors(v)
        if not nv:
            continue
        for u in instance.vertices:
            if u == v or instance.demand[u] != 1:
                continue
            if nv <= (instance.neighbors(u) | {u}):
                events.append(apply(instance, ReductionEvent(rule_id=12, demand_deltas={u: -1})))
    return events


PAIRWISE = {4: pairwise_rule4, 5: pairwise_rule5, 12: pairwise_rule12}


def scan_instances():
    """Seeded ``r:1``, ``random:2`` and ``bdvd:3`` graphs at n = 30-300 and
    corpus seeds, each with a random forbidden set."""
    for i in range(24):
        rng = random.Random(i)
        n = rng.randint(30, 300)
        profile = ("r:1", "random:2", "bdvd:3")[i % 3]
        inst = make_special_case(generate_planar(n, rng.choice([0.6, 0.8, 1.0]), i), profile, seed=i)
        inst.budget = rng.randint(1, n // 4)
        inst.forbidden = {v for v in inst.vertices if rng.random() < 0.15}
        yield f"{profile}/n{n}/{i}", inst
    for seed in range(0, 600, 3):
        inst = corpus_instance(seed)
        rng = random.Random(seed)
        inst.forbidden = {v for v in inst.vertices if rng.random() < 0.2}
        yield f"corpus/{seed}", inst


class TestCandidateScansMatchPairwiseScans:
    """Rules 4, 5 and 12 emit the events their pairwise scans would, in order.

    Each rule is called on the raw instance, where the fixpoint never
    calls it, and then on every state the local rules pass through,
    always on two copies, one per scan.
    """

    @staticmethod
    def check(name, instance, rid):
        reference = instance.copy()
        expected = [astuple(ev) for ev in PAIRWISE[rid](reference)]
        got = [astuple(ev) for ev in _LOCAL_RULES[rid](instance)]
        assert got == expected, f"rule {rid} on {name}"
        assert instance == reference, f"rule {rid} on {name}"
        return len(got)

    def test_events_and_instances_match(self):
        fired = dict.fromkeys(PAIRWISE, 0)
        for name, inst in scan_instances():
            for rid in PAIRWISE:
                fired[rid] += self.check(name, inst.copy(), rid)
            batch = True
            while batch and inst.status is Status.OPEN:
                batch = []
                for rid, rule in _LOCAL_RULES.items():
                    if rid in PAIRWISE:
                        fired[rid] += self.check(name, inst.copy(), rid)
                    batch.extend(rule(inst))
                    if inst.status is not Status.OPEN:
                        break
        assert min(fired.values()) > 100, fired


# Rule 9 as it was when it tried every selectable neighbor of ``v`` as the
# witness, kept as the oracle its common-neighborhood test must match.
def nested_rule9(instance):
    events = []
    for v in instance.vertices:
        if v in instance.forbidden or instance.demand[v] > 1:
            continue
        high_closed = neighborhood(instance, v)
        for w in sorted(instance.neighbors(v)):
            if w in instance.forbidden:
                continue
            if not high_closed <= instance.neighbors(w):
                continue
            fallbacks = [z for z in instance.neighbors(v) if z != w and instance.demand[z] >= 2]
            if len(fallbacks) > 1:
                continue
            if any(z in instance.forbidden for z in fallbacks):
                continue
            events.append(apply(instance, ReductionEvent(rule_id=9, newly_blue=frozenset({v}))))
            break
    return events


class TestRule9MatchesNestedScan:
    """Rule 9 emits the events of its nested scan over witnesses, in order,
    on the raw instance and on every state the local rules hand it."""

    @staticmethod
    def check(name, instance):
        reference = instance.copy()
        expected = [astuple(ev) for ev in nested_rule9(reference)]
        got = [astuple(ev) for ev in rule9(instance)]
        assert got == expected, name
        assert instance == reference, name
        return len(got)

    def test_events_and_instances_match(self):
        fired = 0
        for name, inst in scan_instances():
            fired += self.check(name, inst.copy())
            batch = True
            while batch and inst.status is Status.OPEN:
                batch = []
                for rid, rule in _LOCAL_RULES.items():
                    if rid == 9:
                        fired += self.check(name, inst.copy())
                    batch.extend(rule(inst))
                    if inst.status is not Status.OPEN:
                        break
        assert fired > 100, fired
