"""The whole pipeline on generated corpora: generate, kernelize, solve, audit.

Demonstrates the special-case demand profiles, instance files, kernel
statistics, and the shrink factor the reductions buy at this scale.
"""

import io

from vecdom import (
    FixpointOptions,
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

# -- demand profiles -------------------------------------------------------

print("== one base graph, four demand profiles ==")
base = generate_planar(12, 0.8, seed=77)
for profile in ("r:1", "bdvd:1", "pids", "random:2"):
    inst = make_special_case(base, profile, seed=77)
    print(f"  {profile:9s} total demand {inst.total_demand():3d}  "
          f"demands {[inst.demand[v] for v in inst.vertices]}")

# -- instance files ----------------------------------------------------------

print("\n== canonical file form ==")
small = make_special_case(generate_planar(5, 1.0, seed=1), "pids")
small.budget = 2
text = write(small)
print(text, end="")
print("round trip is exact:", parse(text) == small and write(parse(text)) == text)

# -- kernelize a batch ---------------------------------------------------------

print("\n== kernelizing thirty degree-slack instances ==")
shrunk = decided = 0
for seed in range(30):
    inst = make_special_case(generate_planar(14, 0.85, seed), "bdvd:2", seed=seed)
    inst.budget = 3
    original = inst.copy()
    report = run_fixpoint(inst, FixpointOptions())
    stats = kernel_report(original, report)
    if report.final_status.value != "open":
        decided += 1
    shrunk += stats.n_before - stats.n_after
    if seed < 3:
        print(" ", format_stats(stats))
print(f"decided outright: {decided}/30, vertices removed in total: {shrunk}")

# -- answers survive the trip ----------------------------------------------------

print("\n== kernel answers equal direct answers ==")
agree = 0
for seed in range(30):
    inst = make_special_case(generate_planar(13, 0.7, seed + 100), "random:2", seed=seed)
    inst.budget = seed % 4
    truth = solve_brute(inst).answer
    answer = solve_bb(kernel_of(run_fixpoint(inst.copy()))).answer
    agree += answer == truth
print(f"{agree}/30 agree (anything below 30 is a release blocker)")
