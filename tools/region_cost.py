"""What the region phases and the kernel statistics cost on large triangulations.

    python3 tools/region_cost.py SRC

Imports ``vecdom`` from the source directory ``SRC`` (the ``src/`` of a
checkout) and, for the maximal planar graphs ``generate_planar(1000, 1.0,
seed)`` with seeds ``SEEDS`` under the profiles ``PROFILES``, runs
``run_fixpoint`` at k = opt and then ``kernel_report``, ``RUNS`` times
each.  One row per input gives the median CPU seconds of each over those
runs, followed by their min-max, e.g. ``1.10 (1.08-1.15)``; three counts,
each summed over the fixpoint and the report: the pairs walked (calls of
``vecdom.regions._maximal_sides``, one per anchor pair whose typed-path
pairs are walked for their sides), the region builds (calls of
``RegionIndex.regions``, each of which builds one anchor pair's
``CandidateRegion``s) and the ``cycle_sides`` calls; the widest
list, the most typed paths any index of the run keeps for one pair (read
from ``RegionIndex.typed_paths``), which shows the headroom under the cap
``vecdom.regions.MAX_PATHS_PER_PAIR``; and the stats line.  The counts,
the widest list and the stats line must be the same in every run; the
tool exits 1 when they are not.  Run it on two checkouts to compare
them: the stats lines must match.  The spread within one row does not
show the drift between runs of the tool, so a timing comparison needs
runs of both checkouts in turn.

The optimum comes from ``optimum`` in the sibling ``solve_reach.py``,
which is ``perfbench/oracle.py``'s integer-programming optimum (HiGHS)
and imports that module only when called, so this module imports only
the standard library.
"""

from __future__ import annotations

import statistics
import sys
import time

from solve_reach import optimum

N = 1000
PROFILES = ("r:2", "pids")
SEEDS = (0, 1)
RUNS = 3


def counting(owner, name: str, counts: dict):
    """Replace ``owner.name``, a module's function or a class's method, by a
    wrapper that counts its calls in ``counts[name]``."""
    real = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    setattr(owner, name, counted)


def widest(index_class, counts: dict):
    """Replace ``index_class.typed_paths`` by a wrapper that keeps in
    ``counts["widest"]`` the most typed paths it returns for one pair."""
    real = index_class.typed_paths
    counts["widest"] = 0

    def typed_paths(index, a1):
        found = real(index, a1)
        longest = max(map(len, found.values()), default=0)
        counts["widest"] = max(counts["widest"], longest)
        return found

    index_class.typed_paths = typed_paths


def spread(seconds) -> str:
    """The median of ``seconds`` followed by their min-max, to two decimals."""
    return f"{statistics.median(seconds):.2f} ({min(seconds):.2f}-{max(seconds):.2f})"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/region_cost.py SRC", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    import vecdom
    import vecdom.regions

    counts: dict[str, int] = {}
    counting(vecdom.regions, "_maximal_sides", counts)
    counting(vecdom.regions.RegionIndex, "regions", counts)
    counting(vecdom.regions, "cycle_sides", counts)
    widest(vecdom.regions.RegionIndex, counts)
    print(f"run_fixpoint at k = opt, then kernel_report, on generate_planar({N}, 1.0, seed)")
    print(
        "| profile | seed | k | fixpoint s | report s | pairs walked | region builds "
        "| cycle_sides | widest list | stats |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    for profile in PROFILES:
        for seed in SEEDS:
            instance = vecdom.make_special_case(vecdom.generate_planar(N, 1.0, seed), profile)
            instance.budget = optimum(instance)
            times = []
            outcomes = set()
            for _ in range(RUNS):
                for name in counts:
                    counts[name] = 0
                start = time.process_time()
                report = vecdom.run_fixpoint(instance.copy())
                middle = time.process_time()
                stats = vecdom.kernel_report(instance, report)
                end = time.process_time()
                times.append((middle - start, end - middle))
                outcomes.add((*counts.values(), vecdom.format_stats(stats)))
            if len(outcomes) != 1:
                print(f"{profile} seed {seed}: the runs differ: {sorted(outcomes)}", file=sys.stderr)
                return 1
            ((walked, builds, calls, widest_list, line),) = outcomes
            fixpoint_s, report_s = (spread(column) for column in zip(*times))
            print(
                f"| {profile} | {seed} | {instance.budget} | {fixpoint_s} "
                f"| {report_s} | {walked:,} | {builds:,} | {calls:,} | {widest_list} | {line} |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
