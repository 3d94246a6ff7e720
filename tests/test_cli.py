"""Command-line driver: subcommands, exit codes, determinism."""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import vecdom
from vecdom import (
    AnnotatedInstance,
    NonPlanarError,
    ParseError,
    SolveResult,
    cli_main,
    embed,
    parse,
    solve_brute,
    write,
)
from vecdom.instance import ReductionEvent, apply
from vecdom.selftest import InstanceRecord, corpus_instance, evaluate_instance, run_selftest

YES_INSTANCE = "p pvds 3 3 1\nd 1 1\nd 2 1\nd 3 1\ne 1 2\ne 1 3\ne 2 3\n"
NO_INSTANCE = "p pvds 2 1 0\nd 1 1\ne 1 2\n"


@pytest.fixture
def yes_file(tmp_path):
    path = tmp_path / "yes.pvds"
    path.write_text(YES_INSTANCE)
    return str(path)


@pytest.fixture
def no_file(tmp_path):
    path = tmp_path / "no.pvds"
    path.write_text(NO_INSTANCE)
    return str(path)


@pytest.fixture
def above_oracle_file(tmp_path, capsys):
    """A YES instance with n = ORACLE_LIMIT + 1 = 19 vertices."""
    path = tmp_path / "n19.pvds"
    argv = ["generate", "--n", "19", "--profile", "r:1", "--k", "6", "--output", str(path)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    return str(path)


class TestSolve:
    def test_yes_with_witness(self, yes_file, capsys):
        assert cli_main(["solve", "--input", yes_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("YES")

    def test_no_exit_code(self, no_file, capsys):
        assert cli_main(["solve", "--input", no_file]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_zero_demand_empty_witness(self, tmp_path, capsys):
        path = tmp_path / "zero.pvds"
        path.write_text("p pvds 2 1 0\ne 1 2\n")
        assert cli_main(["solve", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "YES"

    def test_brute_method(self, yes_file, capsys):
        assert cli_main(["solve", "--input", yes_file, "--method", "brute"]) == 0
        assert capsys.readouterr().out.startswith("YES")

    def test_brute_refuses_above_the_oracle_limit(self, above_oracle_file, capsys):
        assert cli_main(["solve", "--input", above_oracle_file, "--method", "brute"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: n=19 exceeds the oracle limit 18\n")
        assert cli_main(["solve", "--input", above_oracle_file]) == 0
        assert capsys.readouterr().out.startswith("YES")

    def test_missing_file_is_input_error(self, tmp_path):
        assert cli_main(["solve", "--input", str(tmp_path / "absent.pvds")]) == 2

    def test_bad_syntax_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.pvds"
        path.write_text("p pvds 2 1 0\ne 1 7\n")
        assert cli_main(["solve", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestKernelize:
    def test_writes_kernel_and_stats(self, yes_file, tmp_path, capsys):
        out_path = tmp_path / "kernel.pvds"
        code = cli_main(["kernelize", "--input", yes_file, "--output", str(out_path)])
        assert code == 0
        stats = capsys.readouterr().out
        assert "status=yes" in stats
        kernel = parse(out_path.read_text())
        assert solve_brute(kernel).answer

    def test_kernel_answer_matches_original(self, tmp_path, capsys):
        for seed in range(12):
            src = tmp_path / f"inst{seed}.pvds"
            assert cli_main(["generate", "--n", "10", "--density", "0.8",
                             "--seed", str(seed), "--profile", "random:2",
                             "--k", str(seed % 4), "--output", str(src)]) == 0
            kern = tmp_path / f"kern{seed}.pvds"
            assert cli_main(["kernelize", "--input", str(src), "--output", str(kern)]) == 0
            capsys.readouterr()
            original = parse(src.read_text())
            kernel = parse(kern.read_text())
            assert solve_brute(kernel).answer == solve_brute(original).answer

    def test_determinism(self, tmp_path, capsys):
        src = tmp_path / "inst.pvds"
        cli_main(["generate", "--n", "12", "--density", "0.85", "--seed", "5",
                  "--profile", "bdvd:1", "--k", "3", "--output", str(src)])
        capsys.readouterr()
        outputs = []
        for run in range(2):
            kern = tmp_path / f"k{run}.pvds"
            assert cli_main(["kernelize", "--input", str(src), "--output", str(kern)]) == 0
            outputs.append((kern.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_stats_line_describes_the_written_kernel(self, tmp_path, capsys):
        src, kern = tmp_path / "inst.pvds", tmp_path / "kernel.pvds"
        decided = 0
        for seed in range(150):
            src.write_text(write(corpus_instance(seed)))
            assert cli_main(["kernelize", "--input", str(src), "--output", str(kern)]) == 0
            fields = dict(token.split("=", 1) for token in capsys.readouterr().out.split())
            kernel = parse(kern.read_text())
            stated = tuple(int(fields[f]) for f in ("n_after", "m_after", "k_after", "blue"))
            assert stated == (kernel.n, kernel.m, kernel.budget, len(kernel.forbidden)), seed
            if fields["status"] != "open":
                decided += 1
                assert (fields["regions"], fields["max_region_interior"]) == ("0", "0"), seed
        assert 0 < decided < 150


class TestVerify:
    def test_valid_witness(self, yes_file, tmp_path, capsys):
        wit = tmp_path / "witness.txt"
        wit.write_text("1\n")
        assert cli_main(["verify", "--input", yes_file, "--witness", str(wit)]) == 0
        assert capsys.readouterr().out.strip() == "VALID"

    def test_invalid_witness(self, yes_file, tmp_path, capsys):
        wit = tmp_path / "witness.txt"
        wit.write_text("1 2\n")  # exceeds budget 1
        assert cli_main(["verify", "--input", yes_file, "--witness", str(wit)]) == 1
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_out_of_range_witness_vertex(self, yes_file, tmp_path):
        wit = tmp_path / "witness.txt"
        wit.write_text("9\n")
        assert cli_main(["verify", "--input", yes_file, "--witness", str(wit)]) == 2

    @pytest.mark.parametrize("text, error", [
        ("1\nx\n", "error: line 2: bad vertex id 'x'"),
        ("c best found\n4\n", "error: line 2: vertex 4 out of range 1..3"),
    ])
    def test_a_bad_witness_file_names_its_line(self, text, error, yes_file, tmp_path, capsys):
        wit = tmp_path / "witness.txt"
        wit.write_text(text)
        assert cli_main(["verify", "--input", yes_file, "--witness", str(wit)]) == 2
        assert capsys.readouterr().err.strip() == error

    def test_solve_output_verifies(self, yes_file, tmp_path, capsys):
        assert cli_main(["solve", "--input", yes_file]) == 0
        out = capsys.readouterr().out.split()
        wit = tmp_path / "witness.txt"
        wit.write_text(" ".join(out[1:]) + "\n")
        assert cli_main(["verify", "--input", yes_file, "--witness", str(wit)]) == 0


class TestGenerate:
    def test_emits_parseable_instance(self, capsys):
        assert cli_main(["generate", "--n", "8", "--density", "0.75", "--seed", "3"]) == 0
        inst = parse(capsys.readouterr().out)
        assert inst.n == 8

    def test_profile_and_budget_applied(self, capsys):
        assert cli_main(["generate", "--n", "5", "--density", "1", "--seed", "1",
                         "--profile", "r:2", "--k", "2"]) == 0
        inst = parse(capsys.readouterr().out)
        assert inst.budget == 2
        assert all(d == 2 for d in inst.demand.values())


class TestStats:
    def test_stats_line(self, yes_file, capsys):
        assert cli_main(["stats", "--input", yes_file]) == 0
        line = capsys.readouterr().out
        assert "n_before=3" in line and "bound_ratio=" in line

    # The certificate follows the region rules: on by default, off with
    # --no-region-rules.
    @pytest.mark.parametrize("command", ["kernelize", "stats"])
    @pytest.mark.parametrize("flags, stats, header", [
        ([], ["status=no", "rules=kernel_bound:1"], "p pvds 2 1 0"),
        (["--no-region-rules"], ["status=open"], "p pvds 203 203 2"),
    ], ids=["default", "no-region-rules"])
    def test_certificate_flags(self, command, flags, stats, header, tmp_path, capsys):
        # A demand-2 cycle admits no rule, so only the size certificate
        # decides it at k=2.
        n = 203
        cycle = AnnotatedInstance(range(n), [(i, (i + 1) % n) for i in range(n)],
                                  {v: 2 for v in range(n)}, budget=2)
        path, kernel = tmp_path / "cycle.pvds", tmp_path / "kernel.pvds"
        path.write_text(write(cycle))
        output = ["--output", str(kernel)] if command == "kernelize" else []
        assert cli_main([command, "--input", str(path), *output, *flags]) == 0
        fields = capsys.readouterr().out.split()
        assert all(field in fields for field in stats)
        if command == "kernelize":
            assert kernel.read_text().splitlines()[0] == header


class TestSelftest:
    def test_small_run_passes(self, capsys):
        assert cli_main(["selftest", "--count", "25", "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert "25 instances sound" in out
        # A run shorter than 50 instances still reports its last one.
        assert err == "checked 25/25 instances\n"

    def test_library_refuses_a_negative_count(self):
        with pytest.raises(ValueError):
            run_selftest(count=-3)

    def test_a_witness_that_does_not_verify_is_a_failure(self, monkeypatch):
        # Every YES keeps its answer but loses its witness.  Seed 23's
        # input and both its kernels have demands, so all three witness
        # checks fail.
        real = vecdom.selftest.solve_bb

        def empty_witness(instance):
            result = real(instance)
            witness = frozenset() if result.answer else None
            return SolveResult(result.answer, witness, result.nodes_explored)

        monkeypatch.setattr(vecdom.selftest, "solve_bb", empty_witness)
        assert evaluate_instance(23).failures == [
            "branch-and-bound witness for the kernel with region rules on does not verify",
            "branch-and-bound witness for the kernel with region rules off does not verify",
            "branch-and-bound witness does not verify",
        ]

    def test_an_unsound_rule_is_caught(self, monkeypatch, capsys):
        # Rule 2 also zeroes the first positive demand it finds, which can
        # only turn NO into YES.  Seed 29 is a NO instance, so the event
        # chain records the flip and both kernels answer wrongly.
        def zero_first_demand(instance):
            for v in instance.vertices:
                d = instance.demand[v]
                if d > 0:
                    return [apply(instance, ReductionEvent(rule_id=2, demand_deltas={v: -d}))]
            return []

        monkeypatch.setitem(vecdom.rules._LOCAL_RULES, 2, zero_first_demand)
        assert cli_main(["selftest", "--count", "1", "--seed", "29"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL seed 29: event 21 (rule 2) flipped the answer from False to True",
            "FAIL seed 29: kernel answer with region rules on is True, oracle says False",
            "FAIL seed 29: kernel answer with region rules off is True, oracle says False",
            "selftest: 3 failure(s) over 1 instances",
        ]
        assert evaluate_instance(29).event_failures == [
            "event 21 (rule 2) flipped the answer from False to True"
        ]

    # Seed 29 is a NO instance whose fixpoint logs 17 events and decides it.
    def test_more_events_than_the_potential_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(vecdom.selftest, "potential", lambda instance: 0)
        assert evaluate_instance(29).failures == ["17 events exceed the potential 0"]

    def test_a_replay_that_misses_the_kernel_is_a_failure(self, monkeypatch):
        # Replaying nothing keeps the input's answer at every step, so only
        # the comparison with the kernel fails.
        monkeypatch.setattr(vecdom.selftest, "replay", lambda instance, events: None)
        record = evaluate_instance(29)
        assert (record.event_failures, record.failures) == (
            [], ["replaying the event log did not reproduce the kernel"]
        )

    def test_a_wrong_branch_and_bound_answer_is_a_failure(self, monkeypatch):
        real = vecdom.selftest.solve_bb
        monkeypatch.setattr(
            vecdom.selftest, "solve_bb",
            lambda instance: SolveResult(not real(instance).answer, None, 0),
        )
        assert evaluate_instance(29).failures == [
            "kernel answer with region rules on is True, oracle says False",
            "kernel answer with region rules off is True, oracle says False",
            "branch-and-bound disagrees with the oracle",
        ]

    def test_progress_is_printed_every_50_instances(self, capsys):
        assert cli_main(["selftest", "--count", "50"]) == 0
        assert capsys.readouterr().err == "checked 50/50 instances\n"

    @pytest.mark.parametrize(
        "count, reported", [(0, []), (25, [25]), (50, [50]), (120, [50, 100, 120])]
    )
    def test_progress_is_reported_every_50_instances_and_after_the_last(
        self, monkeypatch, count, reported
    ):
        record = lambda seed: InstanceRecord(seed, None, True, None, None)
        monkeypatch.setattr(vecdom.selftest, "evaluate_instance", record)
        calls = []
        assert run_selftest(count=count, progress=calls.append) == (count, [])
        assert calls == reported


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == 2


# Every option each subcommand takes; a new flag is an edit of this table.
OPTIONS = {
    "kernelize": "--input --output --no-region-rules",
    "solve": "--input --method",
    "verify": "--input --witness",
    "generate": "--n --density --seed --profile --k --output",
    "stats": "--input --no-region-rules",
    "selftest": "--count --seed",
}


@pytest.mark.parametrize("command", OPTIONS)
def test_each_subcommand_takes_only_its_options(command, capsys):
    assert cli_main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith(f"usage: vecdom {command} ")
    assert re.findall(r"--[a-z-]+", usage) == OPTIONS[command].split()


class TestOneParserPerProcess:
    """cli_main parses with one parser per process; no call leaves state for the next."""

    def test_refused_brute_call_leaves_plain_solve_on_bb(
        self, yes_file, above_oracle_file, monkeypatch, capsys
    ):
        assert cli_main(["solve", "--input", above_oracle_file, "--method", "brute"]) == 2
        capsys.readouterr()
        monkeypatch.setattr(vecdom.cli, "solve_brute", lambda *a, **k: pytest.fail("brute ran"))
        assert cli_main(["solve", "--input", yes_file]) == 0
        instance = parse(YES_INSTANCE)
        witness = " ".join(str(v + 1) for v in sorted(vecdom.solve_bb(instance).witness))
        assert capsys.readouterr().out == f"YES {witness}\n"

    def test_no_region_rules_does_not_stick(self, tmp_path, capsys):
        n = 203  # the demand-2 cycle of TestStats: only the certificate decides it
        cycle = AnnotatedInstance(range(n), [(i, (i + 1) % n) for i in range(n)],
                                  {v: 2 for v in range(n)}, budget=2)
        path = tmp_path / "cycle.pvds"
        path.write_text(write(cycle))
        stats = ["stats", "--input", str(path)]
        assert cli_main(stats) == 0
        default = capsys.readouterr().out
        assert cli_main(stats + ["--no-region-rules"]) == 0
        assert capsys.readouterr().out != default
        assert cli_main(stats) == 0
        assert capsys.readouterr().out == default
        assert "status=no" in default.split()

    def test_usage_error_does_not_stick(self, yes_file, capsys):
        assert cli_main(["frobnicate"]) == 2
        assert cli_main(["solve", "--input", yes_file]) == 0
        assert capsys.readouterr().out.startswith("YES")


class TestBadNumbers:
    """A bad value on the command line is an input error: exit 2 and an
    ``error:`` line, never a traceback, and never silently accepted."""

    def check(self, argv, capsys):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_generate_zero_vertices(self, capsys):
        self.check(["generate", "--n", "0"], capsys)

    def test_generate_density_above_one(self, capsys):
        self.check(["generate", "--n", "5", "--density", "2"], capsys)

    def test_generate_unknown_profile(self, capsys):
        self.check(["generate", "--n", "5", "--profile", "bogus"], capsys)

    @pytest.mark.parametrize("profile", ["r:x", "alpha:1/0"])
    def test_generate_profile_without_a_number(self, profile, capsys):
        self.check(["generate", "--n", "5", "--profile", profile], capsys)

    def test_generate_negative_budget(self, capsys):
        self.check(["generate", "--n", "5", "--k", "-1"], capsys)

    # The typed-path cap is a constant of vecdom.regions, the certificate
    # follows the region rules and brute force runs at ORACLE_LIMIT: no
    # flag sets any of them.
    @pytest.mark.parametrize("command, flag", [
        ("kernelize", "--max-paths-per-pair 5"),
        ("stats", "--max-paths-per-pair 5"),
        ("kernelize", "--kernel-certificate on"),
        ("kernelize", "--kernel-certificate off"),
        ("stats", "--kernel-certificate on"),
        ("stats", "--kernel-certificate off"),
        ("solve", "--oracle-limit 3"),
    ])
    def test_retired_flag_is_unrecognized(self, command, flag, yes_file, capsys):
        assert cli_main([command, "--input", yes_file, *flag.split()]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag}" in captured.err

    def test_selftest_negative_count(self, capsys):
        self.check(["selftest", "--count", "-3"], capsys)

    @pytest.mark.parametrize("command", ["kernelize", "stats", "solve", "verify"])
    def test_file_that_is_not_utf8(self, command, yes_file, tmp_path, capsys):
        bad = tmp_path / "bad.pvds"
        bad.write_bytes(b"p pvds 1 0 0\n\xff\n")
        if command == "verify":
            argv = ["verify", "--input", yes_file, "--witness", str(bad)]
        else:
            argv = [command, "--input", str(bad)]
        self.check(argv, capsys)


@st.composite
def small_instances(draw):
    """Instances of at most 8 vertices: forbidden vertices, budgets down to
    -1, and edge sets that can be non-planar or too dense to parse."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    demand = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 3)))
    forbidden = draw(st.sets(st.integers(0, n - 1)))
    budget = draw(st.integers(-1, 3))
    return AnnotatedInstance(range(n), edges, demand, budget=budget, forbidden=forbidden)


K33 = AnnotatedInstance(range(6), [(u, v) for u in range(3) for v in range(3, 6)], {0: 1}, budget=1)


@given(small_instances())
@example(K33)
@settings(max_examples=60, deadline=None)
def test_fuzzed_instances_never_raise(tmp_path_factory, inst):
    """Input errors, non-planar input among them, end in exit 2, and a
    readable planar instance never does."""
    base = tmp_path_factory.getbasetemp()
    source, kernel = base / "fuzz.pvds", base / "fuzz.kernel.pvds"
    text = write(inst)
    source.write_text(text)
    try:
        embed(parse(text))
        planar = True
    except (ParseError, NonPlanarError):
        planar = False
    ok = 0 if planar else 2
    assert cli_main(["kernelize", "--input", str(source), "--output", str(kernel)]) == ok
    assert cli_main(["stats", "--input", str(source)]) == ok
    answers = (0, 1) if planar else (2,)
    assert cli_main(["solve", "--input", str(source)]) in answers
    assert cli_main(["solve", "--input", str(source), "--method", "brute"]) in answers


@pytest.mark.parametrize("command", [
    ["stats"], ["solve"], ["solve", "--method", "brute"],
])
def test_non_planar_input_is_refused_alike(command, tmp_path, capsys):
    """K3,3 fits the 3n-6 edge bound, so it parses; every command that
    decides or reduces it exits 2 with kernelize's message."""
    source = tmp_path / "k33.pvds"
    source.write_text(write(K33))
    assert cli_main(["kernelize", "--input", str(source)]) == 2
    refusal = capsys.readouterr()
    assert refusal.out == "" and "not planar" in refusal.err
    assert cli_main([command[0], "--input", str(source), *command[1:]]) == 2
    assert capsys.readouterr() == refusal


def test_crash_exits_2_from_main_only(yes_file, monkeypatch, capsys):
    """A crash is no answer: ``main`` exits 2 with the traceback on stderr,
    while ``cli_main`` lets it through to in-process callers."""

    def crash(instance):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(vecdom.cli, "solve_bb", crash)
    with pytest.raises(RuntimeError):
        cli_main(["solve", "--input", yes_file])
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["vecdom", "solve", "--input", yes_file])
    with pytest.raises(SystemExit) as exit_:
        vecdom.cli.main()
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: solver crashed" in captured.err


def _wheel_file(tmp_path):
    """README's quick-start wheel at k=2: a hub 0 and a rim 1-6, every
    demand 1."""
    rim = [(i, i % 6 + 1) for i in range(1, 7)]
    spokes = [(0, v) for v in range(1, 7)]
    wheel = AnnotatedInstance(range(7), rim + spokes, {v: 1 for v in range(7)}, budget=2)
    path = tmp_path / "wheel.pvds"
    path.write_text(write(wheel))
    return str(path)


@pytest.mark.parametrize("method", ["bb", "brute"])
def test_solve_refuses_a_witness_that_does_not_verify(method, tmp_path, monkeypatch, capsys):
    """A YES whose witness fails on the input is no answer: ``main`` exits
    2 with the traceback and prints no ``YES``."""
    solver = "solve_bb" if method == "bb" else "solve_brute"
    monkeypatch.setattr(vecdom.cli, solver, lambda *a: SolveResult(True, frozenset(), 1))
    monkeypatch.setattr(
        sys, "argv", ["vecdom", "solve", "--input", _wheel_file(tmp_path), "--method", method]
    )
    with pytest.raises(SystemExit) as exit_:
        vecdom.cli.main()
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert "YES" not in captured.out
    assert "AssertionError" in captured.err


def test_python_dash_m_runs_the_driver(yes_file):
    src = str(Path(vecdom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-m", "vecdom", "solve", "--input", yes_file],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("YES")
    usage = subprocess.run(
        [sys.executable, "-m", "vecdom", "frobnicate"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert usage.returncode == 2


def test_python_dash_m_solves_a_deep_search(tmp_path):
    """1100 isolated demand-1 vertices and a five-vertex component of
    optimum 2 (corpus_instance(1519)) at k = 1102: the root's greedy
    cover overshoots the budget, so the search chooses every isolated
    vertex, one level each, and still answers YES."""
    n = 1100
    edges = [(0, 2), (1, 2), (1, 3), (1, 4), (3, 4)]
    demand = [1] * n + [0, 1, 2, 2, 1]
    path = tmp_path / "isolated.pvds"
    path.write_text(
        f"p pvds {n + 5} {len(edges)} {n + 2}\n"
        + "".join(f"d {v} {d}\n" for v, d in enumerate(demand, start=1))
        + "".join(f"e {n + 1 + u} {n + 1 + v}\n" for u, v in edges)
    )
    src = str(Path(vecdom.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "vecdom", "solve", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("YES")
    assert set(map(int, run.stdout.split()[1:])) >= set(range(1, n + 1))
