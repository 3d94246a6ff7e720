"""File format, generators, demand profiles, kernel statistics."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vecdom import (
    FixpointOptions,
    ParseError,
    Status,
    embed,
    format_stats,
    generate_planar,
    kernel_of,
    kernel_report,
    make_special_case,
    parse,
    run_fixpoint,
    solve_bb,
    solve_brute,
    write,
)
from vecdom.toolkit import parse_witness, write_witness

from conftest import build, worst_case_region_instance


class TestParse:
    def test_minimal_file(self):
        inst = parse("p pvds 2 1 1\ne 1 2\nd 2 1\n")
        assert inst.n == 2 and inst.m == 1 and inst.budget == 1
        assert inst.demand == {0: 0, 1: 1}

    def test_header_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse("p pvds 3 3 0\ne 1 2\ne 2 3\n")

    def test_forbidden_line(self):
        inst = parse("p pvds 2 1 0\ne 1 2\nf 1\n")
        assert inst.forbidden == {0}

    def test_comments_and_blank_lines_ignored(self):
        inst = parse("c hello\n\np pvds 1 0 2\nc bye\n")
        assert inst.n == 1 and inst.budget == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError):
            parse("p pvds 2 2 0\ne 1 2\ne 2 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("p pvds 2 1 0\ne 1 1\n")
        assert err.value.line == 2

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError):
            parse("p pvds 2 1 0\ne 1 5\n")

    def test_data_before_header(self):
        with pytest.raises(ParseError):
            parse("e 1 2\np pvds 2 1 0\n")

    def test_negative_budget_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("c no solution has -1 vertices\np pvds 3 2 -1\ne 1 2\ne 2 3\n")
        assert err.value.line == 2 and "negative counts in header" in str(err.value)

    @pytest.mark.parametrize("text, line, message", [
        ("p pvds 2 0 0\nd x 1\n", 2, "bad vertex id 'x'"),
        ("p pvds 2 0 0\np pvds 2 0 0\n", 2, "duplicate header"),
        ("p pvds two 0 0\n", 1, "header counts must be integers"),
        ("p pvds 2 0 0\nd 1 1\nd 1 2\n", 3, "duplicate demand for vertex 1"),
        ("p pvds 2 0 0\nd 1\n", 2, "demand line must be 'd <v> <demand>'"),
        ("p pvds 2 0 0\nd 1 one\n", 2, "demand must be an integer"),
        ("p pvds 2 0 0\nd 2 -1\n", 2, "negative demand"),
        ("p pvds 2 0 0\nf 1 2\n", 2, "forbidden line must be 'f <v>'"),
        ("p pvds 2 0 0\nf 2\nc again\nf 2\n", 4, "duplicate forbidden line for vertex 2"),
        ("p pvds 2 0 0\ne 1\n", 2, "edge line must be 'e <u> <v>'"),
        ("p pvds 2 0 0\nx 1\n", 2, "unknown line type 'x'"),
    ])
    def test_refusals_name_their_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


_TOKENS = st.one_of(
    st.sampled_from(["p", "pvds", "d", "f", "e", "c", "x", "-", "1.5", "", "\t"]),
    st.integers(-2, 12).map(str),
)


@st.composite
def token_files(draw):
    lines = draw(st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=10))
    if draw(st.booleans()):
        n, m, k = (draw(st.integers(-1, 8)) for _ in range(3))
        lines.insert(draw(st.integers(0, len(lines))), f"p pvds {n} {m} {k}")
    return "\n".join(lines)


class TestParseFuzz:
    @given(token_files())
    @settings(max_examples=150, deadline=None)
    def test_only_parse_errors_escape(self, text):
        try:
            inst = parse(text)
        except ParseError:
            return
        assert parse(write(inst)) == inst


class TestWrite:
    def test_empty_instance(self):
        assert write(build(0)) == "p pvds 0 0 0\n"

    def test_canonical_ordering(self):
        inst = build(3, [(1, 2), (0, 2)], {2: 2}, k=1, forbidden=[1])
        assert write(inst) == "p pvds 3 2 1\nd 3 2\nf 2\ne 1 3\ne 2 3\n"

    def test_round_trip_field_for_field(self):
        inst = parse("p pvds 4 3 2\nd 1 1\nd 4 2\nf 2\ne 1 2\ne 2 3\ne 3 4\n")
        assert parse(write(inst)) == inst

    def test_write_parse_write_byte_stable(self):
        text = "c scrambled\np pvds 4 2 1\ne 3 4\nd 2 1\ne 1 2\n"
        canonical = write(parse(text))
        assert write(parse(canonical)) == canonical

    def test_reduced_instance_renumbers_compactly(self):
        inst = build(4, [(0, 1), (2, 3)], {1: 1, 3: 1}, k=2)
        inst.delete_vertex(2)
        text = write(inst)
        reparsed = parse(text)
        assert reparsed.n == 3
        assert solve_brute(reparsed).answer == solve_brute(inst).answer

    @given(st.integers(0, 5000))
    @settings(max_examples=80, deadline=None)
    def test_generated_instances_round_trip(self, seed):
        inst = make_special_case(generate_planar(3 + seed % 12, 0.8, seed), "random:3", seed=seed)
        inst.budget = seed % 5
        text = write(inst)
        assert parse(text) == inst
        assert write(parse(text)) == text


def kernels_with_holes():
    """Open kernels of density-0.8 ``r:1`` graphs whose ids skip deleted vertices."""
    out = []
    for seed in range(10):
        inst = make_special_case(generate_planar(40, 0.8, seed), "r:1")
        inst.budget = 10
        kernel = kernel_of(run_fixpoint(inst))
        if kernel.status is Status.OPEN and kernel.vertices[-1] >= kernel.n:
            out.append(kernel)
    return out


class TestWitnessFiles:
    def test_round_trip_on_kernels_whose_ids_have_holes(self):
        kernels = kernels_with_holes()
        assert len(kernels) == 2
        for kernel in kernels:
            for size in range(kernel.n + 1):
                for chosen in itertools.combinations(kernel.vertices, size):
                    text = write_witness(kernel, chosen)
                    assert parse_witness(text, kernel) == set(chosen)

    def test_labels_are_those_write_gives(self):
        inst = build(5, [(0, 4), (2, 4)], {4: 2})
        inst.delete_vertex(1)
        inst.delete_vertex(3)
        assert write(inst) == "p pvds 3 2 0\nd 3 2\ne 1 3\ne 2 3\n"
        assert write_witness(inst, {4, 0}) == "1 3"
        assert parse_witness("3 1\n", inst) == {0, 4}

    def test_blank_and_comment_lines_are_skipped(self):
        inst = build(5)
        text = "c chosen by hand\n\n  2 \n   c 9 is no label\n5\t4 2\n"
        assert parse_witness(text, inst) == {1, 3, 4}
        assert parse_witness("", inst) == set() and write_witness(inst, ()) == ""

    @pytest.mark.parametrize("text, line, message", [
        ("1\nx\n", 2, "bad vertex id 'x'"),
        ("9\n", 1, "vertex 9 out of range 1..5"),
        ("c none\n\n2 0\n", 3, "vertex 0 out of range 1..5"),
    ])
    def test_a_bad_label_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_witness(text, build(5))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


class TestGeneratePlanar:
    def test_full_density_three_is_triangle(self):
        inst = generate_planar(3, 1.0, seed=0)
        assert inst.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_always_embeddable(self):
        for seed in range(30):
            embed(generate_planar(5 + seed % 20, (seed % 10) / 10, seed))

    def test_seed_determinism(self):
        a = generate_planar(50, 0.7, seed=123)
        b = generate_planar(50, 0.7, seed=123)
        assert a.edges() == b.edges()

    def test_triangulation_has_maximal_edges(self):
        inst = generate_planar(40, 1.0, seed=9)
        assert inst.m == 3 * 40 - 6

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_planar(0, 0.5, 1)
        with pytest.raises(ValueError):
            generate_planar(5, 1.5, 1)


class TestMakeSpecialCase:
    def test_uniform_demand(self):
        inst = make_special_case(build(3, [(0, 1), (1, 2), (0, 2)]), "r:1")
        assert inst.demand == {0: 1, 1: 1, 2: 1}

    def test_degree_slack_star(self):
        star = build(5, [(0, v) for v in range(1, 5)])
        inst = make_special_case(star, "bdvd:2")
        assert inst.demand[0] == 2
        assert all(inst.demand[v] == 0 for v in range(1, 5))

    def test_pids_on_four_cycle(self):
        inst = make_special_case(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), "pids")
        assert all(d == 1 for d in inst.demand.values())

    def test_alpha_ceiling_avoids_float_drift(self):
        wheel = build(11, [(0, v) for v in range(1, 11)])
        inst = make_special_case(wheel, "alpha:0.1")
        assert inst.demand[0] == 1  # ceil(0.1 * 10) == 1 exactly

    def test_alpha_bounds(self):
        triangle = build(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            make_special_case(triangle, "alpha:0")
        with pytest.raises(ValueError):
            make_special_case(triangle, "alpha:1.5")

    def test_negative_parameters_rejected(self):
        triangle = build(3, [(0, 1), (1, 2), (0, 2)])
        for profile in ("r:-1", "bdvd:-2", "random:-1"):
            with pytest.raises(ValueError):
                make_special_case(triangle, profile)

    def test_random_profile_seeded(self):
        base = generate_planar(12, 0.8, 4)
        one = make_special_case(base, "random:3", seed=11)
        two = make_special_case(base, "random:3", seed=11)
        assert one.demand == two.demand

    def test_original_untouched(self):
        base = build(3, [(0, 1), (1, 2), (0, 2)])
        make_special_case(base, "r:2")
        assert all(d == 0 for d in base.demand.values())

    @pytest.mark.parametrize("profile, demands", [
        ("R:2", [2, 2, 2, 2, 2, 2, 2, 2, 2]),
        (" r : 2 ", [2, 2, 2, 2, 2, 2, 2, 2, 2]),
        ("alpha: 1/3", [2, 1, 1, 1, 1, 1, 1, 1, 1]),
        ("alpha:0.5", [2, 2, 2, 1, 1, 1, 1, 2, 1]),
        ("pids", [2, 2, 2, 1, 1, 1, 1, 2, 1]),
        ("bdvd:1", [3, 2, 2, 1, 1, 1, 1, 2, 0]),
        ("random:3", [2, 2, 0, 3, 1, 0, 1, 0, 2]),
    ])
    def test_accepted_spellings(self, profile, demands):
        # Degrees on this graph: 4, 3, 3, 2, 2, 2, 2, 3, 1.
        inst = make_special_case(generate_planar(9, 0.8, 2), profile, seed=5)
        assert [inst.demand[v] for v in inst.vertices] == demands

    @pytest.mark.parametrize("profile, message", [
        ("pids:1", "pids takes no argument"),
        ("pids: ", "pids takes no argument"),
        ("pids:", "pids takes no argument"),
        ("alpha:1/0", "profile 'alpha:1/0' needs a number after ':'"),
        ("r:x", "profile 'r:x' needs a number after ':'"),
        ("r", "profile 'r' needs a number after ':'"),
        ("bogus", "unknown profile 'bogus'"),
        ("", "unknown profile ''"),
        ("r:-1", "uniform demand must be non-negative"),
        ("alpha:0", "alpha must lie in (0, 1]"),
        ("alpha:1.5", "alpha must lie in (0, 1]"),
        ("alpha:-1", "alpha must lie in (0, 1]"),
        ("bdvd:-2", "target degree must be non-negative"),
        ("random:-1", "maximum demand must be non-negative"),
    ])
    def test_refused_strings(self, profile, message):
        with pytest.raises(ValueError) as exc:
            make_special_case(generate_planar(9, 0.8, 2), profile, seed=5)
        assert str(exc.value) == message


class TestKernelReport:
    def test_worst_case_region_measures_fifteen(self):
        inst = worst_case_region_instance()
        # enumerate on the construction itself: a zero-round report leaves
        # the instance unreduced
        report = run_fixpoint(
            inst.copy(),
            FixpointOptions(kernel_certificate=False, enable_region_rules=False, max_rounds=0),
        )
        stats = kernel_report(inst, report)
        assert stats.max_region_interior == 15

    def test_worst_case_stays_within_region_ceiling_after_reduction(self):
        inst = worst_case_region_instance()
        reduced = inst.copy()
        report = run_fixpoint(reduced)
        stats = kernel_report(inst, report)
        assert stats.max_region_interior <= 15
        assert stats.n_before == 23
        assert stats.n_after == reduced.n
        assert stats.blue_count == len(reduced.forbidden)

    def test_early_no_enumerates_no_regions(self, region_calls):
        # Rule 3 overspends the budget with 18 of the 20 vertices left.
        inst = make_special_case(generate_planar(20, 0.8, 2), "r:1")
        inst.budget = 1
        report = run_fixpoint(inst.copy())
        assert report.final_status is Status.DECIDED_NO and report.final_instance.n == 18
        calls = region_calls("cycle_sides")
        stats = kernel_report(inst, report)
        assert calls == {"cycle_sides": 0}
        assert (stats.n_after, stats.m_after, stats.k_after, stats.blue_count) == (2, 1, 0, 0)
        assert (stats.region_count_examined, stats.max_region_interior) == (0, 0)

    def test_report_on_a_reused_index_builds_no_region(self, region_calls):
        inst = make_special_case(generate_planar(20, 1.0, 3), "pids")
        inst.budget = max(5, max(inst.demand.values()))
        report = run_fixpoint(inst.copy())
        assert report.region_index is not None
        assert report.region_index.describes(kernel_of(report))
        calls = region_calls("RegionIndex.regions", "cycle_sides")
        stats = kernel_report(inst, report)
        # The pairs the last phase skipped are counted from their sides: the
        # same cycle_sides walks as when their regions were built (136), and
        # no CandidateRegion.
        assert calls == {"RegionIndex.regions": 0, "cycle_sides": 136}
        assert (stats.region_count_examined, stats.max_region_interior) == (38, 3)

    def test_all_zero_demand_reduces_to_nothing(self):
        inst = generate_planar(9, 0.9, 2)
        inst.budget = 1
        report = run_fixpoint(inst.copy())
        stats = kernel_report(inst, report)
        assert stats.n_after == 0
        assert stats.status is Status.DECIDED_YES

    def test_bound_ratio_uses_reduced_budget(self):
        inst = build(3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: 1, 2: 1}, k=2)
        report = run_fixpoint(inst.copy())
        stats = kernel_report(inst, report)
        assert stats.bound_ratio == stats.n_after / max(stats.k_after, 1)

    def test_reused_index_matches_a_fresh_one_and_is_dropped_when_stale(self, monkeypatch):
        import vecdom.regions
        import vecdom.toolkit

        inst = worst_case_region_instance()
        embeds = []
        real_embed = vecdom.toolkit.embed
        monkeypatch.setattr(
            vecdom.toolkit, "embed", lambda final: embeds.append(1) or real_embed(final)
        )

        def stats_and_embeds(report):
            embeds.clear()
            return kernel_report(inst, report), len(embeds)

        report = run_fixpoint(inst.copy())
        assert report.final_status is Status.OPEN and report.final_instance.forbidden
        assert report.region_index is not None

        reused, reused_embeds = stats_and_embeds(report)
        fresh, fresh_embeds = stats_and_embeds(dataclasses.replace(report, region_index=None))
        assert (reused_embeds, fresh_embeds) == (0, 1)
        assert reused == fresh and reused.region_count_examined > 0
        assert (reused.region_count_examined, reused.max_region_interior) == (48, 9)

        # A run cut after its one round: that round's region phase colored,
        # and the stats read the sides it kept on the unreduced graph.
        cut_run = run_fixpoint(inst.copy(), FixpointOptions(max_rounds=1))
        assert cut_run.max_rounds_hit and cut_run.final_status is Status.OPEN
        assert (cut_run.rule_fire_counts[6], cut_run.rule_fire_counts[7]) == (8, 2)
        assert cut_run.region_index._sides
        cut, cut_embeds = stats_and_embeds(cut_run)
        fresh, fresh_embeds = stats_and_embeds(dataclasses.replace(cut_run, region_index=None))
        assert (cut_embeds, fresh_embeds) == (0, 1)
        assert cut == fresh
        assert (cut.region_count_examined, cut.max_region_interior) == (125, 15)

        # A capped run counts at its cap, whether the index is reused or fresh.
        with monkeypatch.context() as capped_patch:
            capped_patch.setattr(vecdom.regions, "MAX_PATHS_PER_PAIR", 2)
            capped_run = run_fixpoint(inst.copy())
            assert capped_run.region_index is not None
            capped, capped_embeds = stats_and_embeds(capped_run)
            fresh, fresh_embeds = stats_and_embeds(
                dataclasses.replace(capped_run, region_index=None)
            )
        assert (capped_embeds, fresh_embeds) == (0, 1)
        assert capped == fresh and fresh.region_count_examined != reused.region_count_examined

        # The caller mutates the reduced instance after the run: the counts
        # must follow the new graph, or the new demands.
        for mutate in (
            lambda final: final.delete_edge(*min(final.edges())),
            lambda final: final.demand.update({v: 0 for v in final.vertices}),
        ):
            report = run_fixpoint(inst.copy())
            before = kernel_report(inst, report)
            mutate(report.final_instance)
            after, after_embeds = stats_and_embeds(report)
            assert after_embeds == 1
            assert after == stats_and_embeds(dataclasses.replace(report, region_index=None))[0]
            assert after.region_count_examined != before.region_count_examined


    def test_the_stats_line_says_when_the_cap_cut_a_list(self, path_cap):
        # A local-only run searches no typed path; only the counts can cut.
        inst = make_special_case(generate_planar(60, 1.0, 3), "pids")
        inst.budget = 15
        options = FixpointOptions(enable_region_rules=False)
        full = kernel_report(inst, run_fixpoint(inst.copy(), options))
        path_cap(2)
        report = run_fixpoint(inst.copy(), options)
        capped = kernel_report(inst, report)
        assert not report.caps_hit
        counts = [(s.region_count_examined, s.max_region_interior, s.caps_hit)
                  for s in (full, capped)]
        assert counts == [(255, 4, False), (181, 3, True)]
        assert format_stats(full).endswith(" rules=-")
        assert format_stats(capped).endswith(" rules=- caps_hit=1")


class TestTrivialInstances:
    def test_yes_round_trip(self):
        report = run_fixpoint(build(2, [(0, 1)], k=0))
        assert report.final_status is Status.DECIDED_YES
        text = write(kernel_of(report))
        assert text == "p pvds 0 0 0\n"
        assert solve_brute(parse(text)).answer

    def test_no_round_trip(self):
        report = run_fixpoint(build(2, [(0, 1)], {0: 1, 1: 1}, k=0))
        assert report.final_status is Status.DECIDED_NO
        inst = parse(write(kernel_of(report)))
        assert (inst.n, inst.m, inst.budget) == (2, 1, 0)
        assert not solve_brute(inst).answer
        assert not solve_bb(inst).answer
