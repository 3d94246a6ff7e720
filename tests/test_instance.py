"""Instance model: validation, domination, neighborhoods, forcing."""

import pytest
from hypothesis import given, settings, strategies as st

from vecdom import (
    AnnotatedInstance,
    InvalidInstanceError,
    ParseError,
    ReductionEvent,
    Status,
    UnknownVertexError,
    dominates,
    neighborhood,
    parse,
    replay,
    solve_bb,
    solve_brute,
    validate,
    verify_solution,
    write,
)
from vecdom.cli import cli_main
from vecdom.instance import apply, force_into_solution
from vecdom.toolkit import generate_planar, make_special_case

from conftest import build


# A loop at file vertex 2 (id 1), on line 4.
LOOP_TEXT = "p pvds 3 2 1\nd 1 1\ne 1 2\ne 2 2\n"


@pytest.mark.parametrize("entry", ["AnnotatedInstance", "parse", "kernelize", "solve"])
def test_self_loop_refused_at_every_entry(entry, tmp_path, capsys):
    # A vertex's demand counts only neighbors in the solution, so a loop
    # never counts; every way in refuses one.
    if entry == "AnnotatedInstance":
        with pytest.raises(InvalidInstanceError) as err:
            AnnotatedInstance(range(3), [(0, 1), (1, 1)], {0: 1}, budget=1)
        assert err.value.violations == ["self-loop at 1"]
    elif entry == "parse":
        with pytest.raises(ParseError, match="self-loop") as err:
            parse(LOOP_TEXT)
        assert err.value.line == 4
    else:
        path = tmp_path / "loop.pvds"
        path.write_text(LOOP_TEXT)
        assert cli_main([entry, "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestIdOrder:
    @pytest.mark.parametrize("seed", range(4))
    def test_the_order_vertices_are_given_in_changes_nothing(self, seed):
        base = make_special_case(generate_planar(12, 0.8, seed), "random:2", seed=seed)
        forward, backward = (
            AnnotatedInstance(
                order, base.edges(), base.demand, budget=4, forbidden=range(seed, 12, 5)
            )
            for order in (range(12), reversed(range(12)))
        )
        assert backward.vertices == forward.vertices == list(range(12))
        assert write(backward) == write(forward)
        assert solve_brute(backward) == solve_brute(forward)
        assert solve_bb(backward) == solve_bb(forward)
        # Copies and deletions keep the order.
        dup = backward.copy()
        dup.delete_vertex(5)
        assert dup.vertices == [v for v in range(12) if v != 5]


class TestValidate:
    def test_well_formed_triangle(self):
        inst = build(3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: 1, 2: 1}, k=1)
        assert validate(inst) == []

    def test_self_loop_reported(self):
        # The constructor refuses loops, so only one written into the
        # adjacency directly can reach validate.
        inst = build(2, [(0, 1)])
        inst._adj[1].add(1)
        assert any("self-loop at 1" in msg for msg in validate(inst))

    def test_k5_is_well_formed_but_parse_refuses_it(self):
        # The planar edge bound belongs to parse; validate checks only the
        # instance's own invariants, and embed refuses K5 with a witness.
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        assert validate(build(5, k5)) == []
        text = "p pvds 5 10 1\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in k5)
        with pytest.raises(ParseError, match=r"m > 3n-6: 10 edges exceeds planar bound 9"):
            parse(text)

    def test_negative_demand_reported(self):
        inst = build(1)
        inst.demand[0] = -1
        assert any("negative demand" in msg for msg in validate(inst))

    @pytest.mark.parametrize("spoil, violation", [
        (lambda inst: inst._adj[0].add(7), "edge (0, 7) references missing vertex 7"),
        (lambda inst: inst._adj[0].add(2), "asymmetric adjacency between 0 and 2"),
        (lambda inst: inst.forbidden.add(9), "forbidden vertex 9 is not in the graph"),
        (
            lambda inst: setattr(inst, "status", Status.DECIDED_YES),
            "status is yes but demands remain or budget is negative",
        ),
    ], ids=["missing-neighbour", "asymmetric", "forbidden-outside", "yes-with-demand"])
    def test_each_broken_invariant_is_reported(self, spoil, violation):
        inst = build(3, [(0, 1), (1, 2)], {1: 1}, k=1)
        spoil(inst)
        assert validate(inst) == [violation]


def path3():
    return build(3, [(0, 1), (1, 2)], {1: 1}, k=1)


@pytest.mark.parametrize("call, message", [
    (lambda: build(2, [(0, 2)]), "edge (0, 2) references a missing vertex"),
    (lambda: build(2, demand={2: 1}), "demand given for missing vertex 2"),
    (
        lambda: apply(path3(), ReductionEvent(rule_id=6, newly_blue=frozenset({5}))),
        "unknown vertex 5",
    ),
    (lambda: dominates(path3(), {0}, [1, 5]), "unknown vertex 5"),
    (lambda: verify_solution(path3(), {0, 5}), "unknown vertex 5"),
], ids=["edge", "demand", "apply-color", "dominates-target", "verify_solution"])
def test_a_missing_vertex_is_refused(call, message):
    with pytest.raises(UnknownVertexError) as err:
        call()
    assert str(err.value) == message


class TestDominates:
    def test_star_center_covers_demand_one_leaves(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {1: 1, 2: 1, 3: 1})
        assert dominates(inst, {0}, {1, 2, 3})

    def test_insufficient_neighbors(self):
        inst = build(3, [(0, 1), (1, 2)], {1: 2})
        assert not dominates(inst, {0}, {1})

    def test_member_of_solution_needs_nothing(self):
        inst = build(1, demand={0: 3})
        assert dominates(inst, {0}, {0})

    def test_unknown_vertex(self):
        inst = build(2, [(0, 1)])
        with pytest.raises(UnknownVertexError):
            dominates(inst, {5}, {0})
        with pytest.raises(UnknownVertexError):
            neighborhood(inst, 7)
        with pytest.raises(UnknownVertexError):
            force_into_solution(inst, 7, rule_id=3)

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_chosen_set(self, seed):
        inst = generate_planar(8, 0.8, seed)
        for v in inst.vertices:
            inst.demand[v] = (seed + v) % 3
        small = {v for v in inst.vertices if v % 3 == 0}
        large = small | {v for v in inst.vertices if v % 3 == 1}
        targets = set(inst.vertices)
        if dominates(inst, small, targets):
            assert dominates(inst, large, targets)


class TestNeighborhood:
    def test_demand_split(self):
        # the quiet neighbor 0 is left out, the demanding neighbor 2 kept
        inst = build(3, [(0, 1), (1, 2)], {0: 0, 2: 2})
        assert neighborhood(inst, 1) == {1, 2}

    def test_isolated_vertex(self):
        inst = build(1)
        assert neighborhood(inst, 0) == {0}

    def test_all_demanding_k4(self):
        inst = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)], {v: 1 for v in range(4)})
        assert neighborhood(inst, 0) == {0, 1, 2, 3}

    def test_center_always_in_high_closed(self):
        # literal closed-set convention: the center joins even with demand 0
        inst = build(2, [(0, 1)], {0: 0, 1: 0})
        assert neighborhood(inst, 0) == {0}


class TestForceIntoSolution:
    def test_star_decrements_and_clamps(self):
        inst = build(4, [(0, 1), (0, 2), (0, 3)], {0: 4, 1: 1, 2: 0, 3: 2}, k=2)
        event = force_into_solution(inst, 0, rule_id=3)
        assert not inst.has_vertex(0)
        assert inst.demand == {1: 0, 2: 0, 3: 1}
        assert inst.budget == 1
        assert inst.status is Status.OPEN
        assert event.removed_vertices == {0}
        assert event.demand_deltas == {1: -1, 3: -1}

    def test_budget_exhaustion_decides_no(self):
        inst = build(1, demand={0: 0}, k=0)
        event = force_into_solution(inst, 0, rule_id=3)
        assert inst.budget == -1
        assert inst.status is Status.DECIDED_NO
        assert event.status_after is Status.DECIDED_NO

    def test_forcing_forbidden_decides_no_matching_oracle(self):
        from vecdom import solve_brute

        # a forbidden vertex with demand above its degree is unsatisfiable
        inst = build(3, [(0, 1), (1, 2)], {1: 3}, k=2, forbidden=[1])
        assert not solve_brute(inst).answer
        force_into_solution(inst, 1, rule_id=3)
        assert inst.status is Status.DECIDED_NO

    def test_never_raises_demand_and_shrinks_weight(self):
        inst = build(5, [(0, 1), (0, 2), (2, 3), (3, 4)], {v: 1 for v in range(5)}, k=3)
        before_demand = dict(inst.demand)
        before_weight = inst.total_demand() + inst.n + inst.m
        force_into_solution(inst, 2, rule_id=3)
        for v, d in inst.demand.items():
            assert d <= before_demand[v]
        assert inst.total_demand() + inst.n + inst.m < before_weight


class TestReplay:
    def test_replay_reproduces_force(self):
        inst = build(4, [(0, 1), (0, 2), (2, 3)], {1: 1, 2: 2, 3: 1}, k=2)
        mirror = inst.copy()
        ev1 = force_into_solution(inst, 0, rule_id=3)
        ev2 = force_into_solution(inst, 2, rule_id=3)
        replay(mirror, [ev1, ev2])
        assert mirror == inst
        assert inst.__eq__(3) is NotImplemented and inst != "x"

    def test_event_for_a_missing_edge_or_vertex_raises(self):
        inst = build(3, [(0, 1)], k=1)
        with pytest.raises(UnknownVertexError):
            replay(inst, [ReductionEvent(rule_id=1, removed_edges=frozenset({(1, 2)}))])
        with pytest.raises(UnknownVertexError):
            replay(inst, [ReductionEvent(rule_id=2, removed_vertices=frozenset({7}))])
        with pytest.raises(UnknownVertexError):
            replay(inst, [ReductionEvent(rule_id=12, demand_deltas={7: -1})])
        assert inst == build(3, [(0, 1)], k=1)

    def test_copy_is_independent(self):
        inst = build(3, [(0, 1), (1, 2)], {1: 1}, k=1)
        dup = inst.copy()
        inst.delete_edge(0, 1)
        inst.demand[1] = 0
        assert dup.has_edge(0, 1)
        assert dup.demand[1] == 1
