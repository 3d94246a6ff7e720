"""Digest of what vecdom makes of a fixed instance set, for byte-identity checks.

    python3 tools/identity_digest.py SRC OUT

Imports ``vecdom`` from the source directory ``SRC`` (the ``src/`` of a
checkout), runs ``run_fixpoint`` with default options on every instance of
the identity set and writes one line per instance to ``OUT``:

    name  sha256(write(kernel_of(report)))  sha256(event log)  stats line

The set is corpus seeds 0-999 (``corpus_instance``); 240 mixed instances
(``random.Random(10000 + i)`` draws n in 20-120, a density in 0.6-1.0 and
k in 1..n/4; the profile cycles through ``MIXED_PROFILES`` by i; graph
seed i); 60 runs of ``make_special_case(generate_planar(300, 0.8, s),
"r:1")``, s 0-19, k 40, 60 and 80; and 45 maximal planar ``pids`` graphs
at n=20, k=5, seeds 0-44.  Run it once on the parent's sources and once
on the change's; an empty ``diff`` of the two files means kernels, event
logs and stats lines are unchanged.  The summary line ends with the
sha256 of ``OUT``, which equals the pin of Tier-1's
``test_identity_set_outputs_are_pinned`` while nothing has changed.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time

MIXED_PROFILES = ("r:1", "r:2", "pids", "random:2", "bdvd:3", "alpha:1/3")


def identity_set(vecdom):
    """Yield ``(name, instance)`` for every instance of the identity set."""
    from vecdom.selftest import corpus_instance

    generate, special = vecdom.generate_planar, vecdom.make_special_case
    for seed in range(1000):
        yield f"corpus/{seed}", corpus_instance(seed)
    for i in range(240):
        rng = random.Random(10000 + i)
        n = rng.randint(20, 120)
        density = rng.choice([0.6, 0.7, 0.8, 0.9, 1.0])
        k = rng.randint(1, n // 4)
        inst = special(generate(n, density, i), MIXED_PROFILES[i % 6], seed=i)
        inst.budget = k
        yield f"mixed/{i}", inst
    for s in range(20):
        base = special(generate(300, 0.8, s), "r:1")
        for k in (40, 60, 80):
            inst = base.copy()
            inst.budget = k
            yield f"r1-300/{s}/k{k}", inst
    for s in range(45):
        inst = special(generate(20, 1.0, s), "pids")
        inst.budget = 5
        yield f"pids-20/{s}", inst


def event_line(ev) -> str:
    status = ev.status_after.value if ev.status_after is not None else "-"
    return (
        f"{ev.rule_id}|{sorted(ev.removed_vertices)}|{sorted(ev.removed_edges)}|"
        f"{sorted(ev.demand_deltas.items())}|{ev.budget_delta}|"
        f"{sorted(ev.newly_blue)}|{status}"
    )


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_line(vecdom, name: str, instance) -> str:
    """The digest line of one instance: ``name``, the sha256 of its kernel
    and of its event log, and its stats line.  ``instance`` is not changed."""
    report = vecdom.run_fixpoint(instance.copy())
    kernel = vecdom.write(vecdom.kernel_of(report))
    events = "\n".join(map(event_line, report.events))
    stats = vecdom.format_stats(vecdom.kernel_report(instance, report))
    return f"{name} {sha(kernel)} {sha(events)} {stats}\n"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/identity_digest.py SRC OUT", file=sys.stderr)
        return 2
    src, out = argv
    sys.path.insert(0, src)
    import vecdom

    start = time.perf_counter()
    lines = [digest_line(vecdom, name, inst) for name, inst in identity_set(vecdom)]
    text = "".join(lines)
    with open(out, "w") as fh:
        fh.write(text)
    elapsed = time.perf_counter() - start
    print(f"{len(lines)} instances in {elapsed:.1f} s -> {out} sha256 {sha(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
