"""The four workloads: seeded inputs, the fixed batch of CLI operations, and
the answer each operation must give.

An operation is what one user would do in one go: kernelize a file and
solve the kernel, solve a file directly, or run one block of the selftest.
All inputs of a workload follow from its ``--seed``, and how many there
are from ``--seconds``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import instances


@dataclass(frozen=True)
class Command:
    kind: str  # "kernelize", "solve" or "selftest"
    argv: tuple[str, ...]
    source: str | None = None  # original input whose optimum decides the answer
    budget: int | None = None  # that input's k
    count: int = 0  # selftest instances in the block


@dataclass
class Batch:
    ops: list[list[Command]] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)  # input file name -> sha256
    optimum: dict[str, int] = field(default_factory=dict)  # input path -> oracle optimum


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _write(workdir: Path, name: str, graph, budget: int) -> tuple[str, str]:
    text = instances.pvds_text(graph, budget)
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path), instances.sha256(text)


def _inputs(batch: Batch, workdir: Path, oracle, graphs, budgets) -> list[tuple[str, int]]:
    """Ask the oracle for each graph's optimum, then write one input file per
    budget in ``budgets(i, graph, optimum)``; return (path, budget) pairs."""
    bases = [_write(workdir, f"g{i:03d}.base.pvds", g, 0)[0] for i, g in enumerate(graphs)]
    optimum = oracle(bases)
    out = []
    for i, (graph, base) in enumerate(zip(graphs, bases)):
        for budget in budgets(i, graph, optimum[base]):
            name = f"g{i:03d}-k{budget}.pvds"
            path, batch.fingerprints[name] = _write(workdir, name, graph, budget)
            batch.optimum[path] = optimum[base]
            out.append((path, budget))
    return out


def _kernelize_then_solve(path: str, budget: int) -> list[Command]:
    kernel = path.removesuffix(".pvds") + ".kernel.pvds"
    return [
        Command("kernelize", ("kernelize", "--input", path, "--output", kernel), path, budget),
        Command("solve", ("solve", "--input", kernel), path, budget),
    ]


def region_dense(seed: int, workdir: Path, oracle, count: int, n: int = 20) -> Batch:
    rng = _rng("region-dense", seed)
    graphs = [instances.make(n, 1.0, "pids", rng.randrange(2**31)) for _ in range(count)]
    batch = Batch()
    # k at least the largest demand, so rule 3 forces nothing.
    inputs = _inputs(batch, workdir, oracle, graphs, lambda i, g, opt: [max(n // 4, max(g.demand))])
    batch.ops = [_kernelize_then_solve(path, k) for path, k in inputs]
    return batch


def local_sparse(seed: int, workdir: Path, oracle, count: int, n: int = 300) -> Batch:
    rng = _rng("local-sparse", seed)
    graphs, drawn = [], []
    for _ in range(count):
        graphs.append(instances.make(n, 0.8, "r:1", rng.randrange(2**31)))
        drawn.append(rng.randint(n // 5, n // 3))
    batch = Batch()
    # Every other graph is YES (k raised to the optimum where it falls below)
    # and the rest NO (k = optimum - 1), so a wrong answer shows either way;
    # one operation per graph keeps the operations independent.
    inputs = _inputs(
        batch, workdir, oracle, graphs, lambda i, g, opt: [max(drawn[i], opt) if i % 2 == 0 else opt - 1]
    )
    batch.ops = [_kernelize_then_solve(path, k) for path, k in inputs]
    return batch


def solve_dense(seed: int, workdir: Path, oracle, count: int, n: int = 26) -> Batch:
    rng = _rng("solve-dense", seed)
    graphs = [instances.make(n, 1.0, "pids", rng.randrange(2**31)) for _ in range(count)]
    batch = Batch()
    inputs = _inputs(batch, workdir, oracle, graphs, lambda i, g, opt: [opt - 1, opt])
    batch.ops = [[Command("solve", ("solve", "--input", path), path, k)] for path, k in inputs]
    return batch


def selftest_small(seed: int, workdir: Path, oracle, count: int, block: int = 50) -> Batch:
    batch = Batch()
    first = seed * 100_000
    for j in range(count):
        start = first + j * block
        argv = ("selftest", "--seed", str(start), "--count", str(block))
        batch.ops.append([Command("selftest", argv, count=block)])
    return batch


RECIPES = {
    "region-dense": region_dense,
    "local-sparse": local_sparse,
    "solve-dense": solve_dense,
    "selftest-small": selftest_small,
}

# Graphs (selftest blocks) per second of --seconds: with --seconds 20 a
# pass took 10-25 s of wall time, as fast or slow as the shared host ran,
# at the commit that defined the benchmark, on a 2-core VM with Python
# 3.11.  One batch of many distinct inputs rather than repeats of a few
# keeps the timings steady over seeds.
PER_SECOND = {"region-dense": 2.25, "local-sparse": 4.0, "solve-dense": 14, "selftest-small": 3.0}


def make_batch(workload: str, seed: int, seconds: float, workdir: Path, oracle) -> Batch:
    count = max(1, round(PER_SECOND[workload] * seconds))
    return RECIPES[workload](seed, workdir, oracle, count=count)
