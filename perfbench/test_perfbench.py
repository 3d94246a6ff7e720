"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Small versions of every workload are traced twice, and the counters that
are meant to be deterministic must agree exactly.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import oracle as ilp  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "region-dense": dict(count=2, n=16),
    "local-sparse": dict(count=3, n=120),
    "solve-dense": dict(count=3, n=16),
    "selftest-small": dict(count=2, block=10),
}


def test_generator_is_frozen():
    # A change here changes every workload: fix the benchmark's inputs, not this digest.
    text = instances.pvds_text(instances.make(40, 0.8, "random:2", 7), 9)
    assert instances.sha256(text) == "63fe0ab415abdf192056f2dd0a4d54eb691e688148b0375305a0af99a552af57"


def test_scale_uses_the_samples_around_an_interval():
    meter = speed.Speedometer()
    meter.starts, meter.seconds = [0.0, 1.0, 2.0], [0.01, 0.03, 0.02]
    assert meter.scale(1.1, 1.5) == pytest.approx(speed.REFERENCE_S / 0.025)
    assert meter.scale(2.5, 3.0) == pytest.approx(speed.REFERENCE_S / 0.02)


def test_rescaled_spans_keep_their_nesting():
    spans = [
        (1, "cli", 0.0, 1.0, None, 0, "solve"),
        (2, "solver.solve_bb", 0.2, 0.6, 1, 0, 10),
        (3, "cli", 1.0, 1.5, None, 1, "solve"),
    ]
    scaled = tracing.layer_metrics(tracing.rescaled(spans, [2.0, 1.0]))
    assert scaled["solver.solve_bb_s"] == pytest.approx(0.8)
    assert scaled["cli.overhead_s"] == pytest.approx(2 * 0.6 + 0.5)
    assert scaled["solver.nodes"] == 10


def _brute_optimum(graph) -> int:
    for size in range(graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if instances.is_solution(graph, size, set(combo)):
                return size
    raise AssertionError("the whole vertex set is always a solution")


@pytest.mark.parametrize("seed", range(12))
def test_oracle_matches_exhaustive_search(seed):
    rng = random.Random(seed)
    profile = ("pids", "r:1", "random:2")[seed % 3]
    graph = instances.make(rng.randint(5, 11), rng.choice((0.7, 1.0)), profile, seed)
    assert ilp.optimum(graph) == _brute_optimum(graph)


def _traced(workload: str, tmp_path: Path):
    run.import_vecdom()
    from vecdom import cli

    workdir = tmp_path / workload
    workdir.mkdir(parents=True)
    undo = run.bound_solver(cli)
    try:
        batch = workloads.RECIPES[workload](3, workdir, run.oracle, **SMALL[workload])
        runs, tracer, missing = run.traced_pass(cli, batch)
    finally:
        undo()
    assert not missing
    assert [run.check(op, r, batch) for op, r in zip(batch.ops, runs)] == [None] * len(runs)
    return batch, runs, tracing.layer_metrics(tracer.spans)


@pytest.mark.parametrize("workload", sorted(workloads.RECIPES))
def test_counters_repeat_exactly(workload, tmp_path):
    first = _traced(workload, tmp_path / "a")
    second = _traced(workload, tmp_path / "b")
    assert first[0].fingerprints == second[0].fingerprints
    assert run.kernel_sizes(first[1]) == run.kernel_sizes(second[1])
    for name in tracing.DETERMINISTIC:
        assert first[2][name] == second[2][name], name
    assert any(first[2][name] for name in tracing.DETERMINISTIC)


def test_local_sparse_asks_for_both_answers(tmp_path):
    # A rule that wrongly decides YES must be able to fail the answer check.
    batch = workloads.local_sparse(3, tmp_path, run.oracle, **SMALL["local-sparse"])
    assert {batch.optimum[op[0].source] <= op[0].budget for op in batch.ops} == {True, False}


def test_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
