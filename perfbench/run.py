"""The vecdom benchmark: a closed-loop, single-process runner of the CLI.

    python3 perfbench/run.py --workload region-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One operation runs at a time, by calling ``vecdom.cli.cli_main``
in this process on ``.pvds`` files the benchmark generated from the seed.
Every answer is checked against an integer-programming oracle (a child
process, see ``oracle.py``) and every YES witness is verified.

A workload's batch holds a number of distinct operations proportional
to ``--seconds`` (``workloads.PER_SECOND``), so its size follows from
``--seconds`` alone, and each timing sums or takes the median over every
operation of one untraced pass.  Every time reported
is in reference seconds: wall time rescaled by the machine's speed at
that moment, measured with a fixed loop between operations (see
``speed.py``); the wall times are kept in the details file.  With
``--trace 0`` the last line of standard output is the end-to-end result; with
``--trace 1`` a traced pass of the same batch follows and the last line
holds the per-layer metrics.  Metric names, units and the workloads'
reasons are read from ``BENCHMARK.json``.  Run details (versions, input
fingerprints, sample counts, the latency tail) go to ``.bench_out/``,
and spans of a traced run, in wall seconds, next to them.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import instances
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 4  # before the measuring window, and as many again after it
# About seventeen times the most nodes one solve explored over the seeds tried
# when the benchmark was defined (29.7k, proving a local-sparse kernel NO); at
# about 13k nodes/s a solve that hits it still ends within OP_LIMIT_S.
NODE_BUDGET = 500_000
OP_LIMIT_S = 60  # one operation running longer than this is a runaway
STATS = re.compile(r"n_before=(\d+) .*n_after=(\d+)")  # the kernelize stats line


class Runaway(Exception):
    pass


class BenchError(Exception):
    pass


@dataclass
class CommandRun:
    kind: str
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    solved_text: str | None = None  # the file a solve command decided


@dataclass
class OpRun:
    commands: list[CommandRun] = field(default_factory=list)
    failure: str | None = None
    start: float = 0.0
    end: float = 0.0
    scale: float = 1.0  # wall seconds to reference seconds, see speed.py

    @property
    def latency(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def ref_latency(self) -> float:
        return self.latency * self.scale


def import_vecdom():
    sys.path.insert(0, str(SRC))
    import vecdom

    if Path(vecdom.__file__).resolve().parent != SRC / "vecdom":
        raise BenchError(f"imported vecdom from {vecdom.__file__}, not from {SRC}")
    return vecdom


def _setup_samples() -> list[tuple[float, float]]:
    """Time ``import vecdom`` in fresh interpreters, one after another;
    return (wall seconds, reference seconds) for each.  The speed is
    measured in the same interpreter, right after the import."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import vecdom; wall = time.perf_counter() - t; "
        "sys.path.insert(0, sys.argv[2]); import speed; print(wall, wall * speed.measure())"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).parent)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import vecdom failed: {proc.stderr.strip()}")
        samples.append(tuple(map(float, proc.stdout.split())))
    return samples


def oracle(paths: list[str]) -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("oracle.py"))],
        input=json.dumps(paths),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"oracle failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def bound_solver(cli):
    """Give the CLI's branch and bound a node budget; return the undo step."""
    original = cli.solve_bb
    if "node_budget" not in inspect.signature(original).parameters:
        raise BenchError("vecdom.cli.solve_bb no longer takes node_budget")
    cli.solve_bb = functools.partial(original, node_budget=NODE_BUDGET)
    return lambda: setattr(cli, "solve_bb", original)


def _on_alarm(signum, frame):
    raise Runaway(f"operation ran longer than {OP_LIMIT_S} s")


def run_op(cli_main, op, tracer) -> OpRun:
    run = OpRun(start=time.perf_counter())
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        for cmd in op:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    if tracer is None:
                        code = cli_main(list(cmd.argv))
                    else:
                        with tracer.command(cmd.argv):
                            code = cli_main(list(cmd.argv))
            finally:
                run.commands.append(
                    CommandRun(cmd.kind, time.perf_counter() - start, None, out.getvalue(), err.getvalue())
                )
            run.commands[-1].code = code
            if cmd.kind == "solve":
                with open(cmd.argv[2], encoding="utf-8") as fh:
                    run.commands[-1].solved_text = fh.read()
    except Exception as exc:  # an operation that raises is a failed operation
        run.failure = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        run.end = time.perf_counter()
    return run


def check(op, run: OpRun, batch) -> str | None:
    """Why the operation's outputs are wrong, or None when they are right."""
    from vecdom.solver import verify_solution
    from vecdom.toolkit import parse

    if run.failure:
        return run.failure
    for cmd, res in zip(op, run.commands):
        exited = f"{cmd.kind} exited {res.code}: {(res.stderr or res.stdout).strip()[-200:]}"
        if cmd.kind == "kernelize":
            if res.code != 0 or not STATS.search(res.stdout):
                return exited
        elif cmd.kind == "selftest":
            if res.code != 0 or f"selftest: all {cmd.count} instances sound" not in res.stdout:
                return exited
        elif cmd.kind == "solve":
            if res.code not in (0, 1):
                return exited
            expected = batch.optimum[cmd.source] <= cmd.budget
            lines = res.stdout.strip().splitlines()
            tokens = lines[-1].split() if lines else []
            answer = bool(tokens) and tokens[0] == "YES"
            if answer != expected or (res.code == 0) != answer:
                return f"answer {tokens[:1]} for {Path(cmd.source).name}, oracle says {'YES' if expected else 'NO'}"
            if answer:
                if not all(t.isdigit() for t in tokens[1:]):
                    return f"unreadable witness for {Path(cmd.source).name}: {lines[-1][:80]}"
                chosen = {int(t) - 1 for t in tokens[1:]}
                graph, budget = instances.read_pvds(res.solved_text)
                if not instances.is_solution(graph, budget, chosen):
                    return f"witness for {Path(cmd.source).name} is not a solution"
                inst = parse(res.solved_text)
                if not verify_solution(inst, {inst.vertices[v] for v in chosen}):
                    return f"verify_solution rejects the witness for {Path(cmd.source).name}"
    return None


def run_pass(cli_main, batch, meter: speed.Speedometer, tracer=None) -> list[OpRun]:
    """Run every operation once, sampling the machine's speed in between."""
    meter.sample()
    runs = []
    for i, op in enumerate(batch.ops):
        if tracer is not None:
            tracer.op = i
        runs.append(run_op(cli_main, op, tracer))
        meter.maybe_sample()
    meter.sample()
    for r in runs:
        r.scale = meter.scale(r.start, r.end)
    return runs


def _tail(latencies: list[float]) -> dict:
    """The highest of a few percentiles that has at least ten samples beyond it."""
    ordered = sorted(latencies)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(len(ordered) * p / 100)  # nearest-rank percentile
        if rank and len(ordered) - rank >= 10:
            return {"percentile": p, "value_s": ordered[rank - 1], "samples": len(ordered)}
    return {"percentile": None, "value_s": None, "samples": len(ordered)}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vecdom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git repository of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def traced_pass(cli, batch):
    """One pass with spans recorded; return (op runs, tracer, unwrapped targets)."""
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        runs = run_pass(cli.cli_main, batch, speed.Speedometer(), tracer)
    finally:
        restore()
    return runs, tracer, missing


def kernel_sizes(runs: list[OpRun]) -> list[tuple[int, int]]:
    """(n_before, n_after) from the stats line of each kernelize command."""
    found = (STATS.search(c.stdout) for r in runs for c in r.commands if c.kind == "kernelize")
    return [(int(m[1]), int(m[2])) for m in found if m]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (SRC / "vecdom" / "__init__.py").is_file():
        raise BenchError(f"no vecdom sources under {SRC}")
    phases = {"start": time.perf_counter()}  # when each phase of the run ended
    setup = _setup_samples()
    phases["setup"] = time.perf_counter()
    vecdom = import_vecdom()
    import networkx
    from vecdom import cli

    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    undo_budget = bound_solver(cli)
    try:
        batch = workloads.make_batch(workload, seed, seconds, workdir, oracle)
        phases["inputs"] = time.perf_counter()
        meter = speed.Speedometer()
        runs = run_pass(cli.cli_main, batch, meter)
        phases["pass"] = time.perf_counter()
        checked = [runs]
        missing = []
        if traced:
            traced_runs, tracer, missing = traced_pass(cli, batch)
            checked.append(traced_runs)
            phases["traced_pass"] = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += _setup_samples()
        phases["setup_again"] = time.perf_counter()
        failures = [why for each in checked for op, res in zip(batch.ops, each) if (why := check(op, res, batch))]
        phases["check"] = time.perf_counter()
    finally:
        undo_budget()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r.ref_latency for r in runs]
    by_kind = {
        kind: sum(c.seconds * r.scale for r in runs for c in r.commands if c.kind == kind)
        for kind in ("kernelize", "solve", "selftest")
    }
    sizes = kernel_sizes(runs)
    n_before = sum(b for b, _ in sizes)
    end_to_end = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "total_s": sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    # Deterministic for a seed; with no kernelize command the solver faces the whole input.
    kernel_n_ratio = sum(a for _, a in sizes) / n_before if n_before else 1.0
    if traced:
        tracer.write(OUT / f"{tag}.spans.jsonl.gz")
        scales = [r.scale for r in traced_runs]
        layer = tracing.layer_metrics(tracing.rescaled(tracer.spans, scales))
        layer["kernel_n_ratio"] = kernel_n_ratio
        layer["kernelize_s"] = by_kind["kernelize"]
        layer["solve_s"] = by_kind["solve"]
        layer["trace.overhead_s"] = sum(r.ref_latency for r in traced_runs) - end_to_end["total_s"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    attempted = sum(len(each) for each in checked)

    details = {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "vecdom_version": getattr(vecdom, "__version__", None),
        "node_budget": NODE_BUDGET,
        "inputs_sha256": batch.fingerprints,
        # How many measurements each reported figure rests on.
        "samples": {
            "setup_s": len(setup),
            "total_s": len(latencies),
            "op_p50_s": len(latencies),
            "kernel_n_ratio": len(sizes),
            "kernelize_s": sum(c.kind == "kernelize" for op in batch.ops for c in op),
            "solve_s": sum(c.kind == "solve" for op in batch.ops for c in op),
            "traced_passes": int(traced),
        },
        "reference_s": speed.REFERENCE_S,
        "phase_wall_s": {b: phases[b] - phases[a] for a, b in itertools.pairwise(phases)},
        "setup_samples_s": [ref for _, ref in setup],
        "setup_wall_s": [wall for wall, _ in setup],
        "command_s": by_kind,
        "op_latency_tail": _tail(latencies),
        "end_to_end": end_to_end,
        "kernel_n_ratio": kernel_n_ratio,
        "kernel_sizes": sizes,
        "wall_total_s": sum(r.latency for r in runs),
        "op_latencies_s": latencies,
        "op_wall_s": [r.latency for r in runs],
        "op_scales": [r.scale for r in runs],
        "speed_samples": [[t - meter.starts[0], s] for t, s in zip(meter.starts, meter.seconds)],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "unwrapped_targets": missing,
        "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(f"perfbench: {workload} seed {seed}: details in {(OUT / f'{tag}.json').relative_to(ROOT)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RECIPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
