"""Watch individual reduction rules fire, then the fixpoint engine at work.

Each rule shrinks or annotates the instance without ever changing its
answer; the event log records every atomic step and can be replayed.
"""

from vecdom import (
    AnnotatedInstance,
    FixpointOptions,
    generate_planar,
    make_special_case,
    replay,
    rule3,
    rule5,
    run_fixpoint,
    solve_brute,
)

# -- forcing obvious members -----------------------------------------------

print("== rule 3 forces vertices that out-demand their degree or the budget ==")
inst = AnnotatedInstance(range(4), [(0, 1), (2, 1), (2, 3)], {0: 5, 2: 2}, budget=2)
print("before:", inst)
events = rule3(inst)
for ev in events:
    print(f"  forced {set(ev.removed_vertices)}, budget {ev.budget_delta:+d}")
print("after: ", inst)

print("\n== ... and the neighbors of a blue vertex whose demand equals its degree ==")
# 0 may not be chosen and needs both its neighbors; 3 needs one of 2's.
inst = AnnotatedInstance(range(4), [(0, 1), (0, 2), (2, 3)], {0: 2, 3: 1}, budget=3, forbidden=[0])
before = solve_brute(inst).answer
print("before:", inst)
events = rule3(inst)
for ev in events:
    print(f"  forced {set(ev.removed_vertices)}, budget {ev.budget_delta:+d}")
print("after: ", inst, "demands", inst.demand)
print("answer kept:", solve_brute(inst).answer == before)

# -- witness-based forcing ---------------------------------------------------

print("\n== rule 5 forces a witness that covers a demand-1 vertex's whole world ==")
star = AnnotatedInstance(range(4), [(0, 1), (0, 2), (0, 3)], {1: 1, 2: 1, 3: 1}, budget=1)
rule5(star)
print("the star center is gone:", star)

# -- the full engine ----------------------------------------------------------

print("\n== fixpoint on a random planar instance ==")
base = generate_planar(14, 0.75, seed=20)
inst = make_special_case(base, "random:2", seed=20)
inst.budget = 3
original = inst.copy()
answer = solve_brute(original).answer
print(f"instance: {inst}, oracle says {answer}")

report = run_fixpoint(inst, FixpointOptions())
final = report.final_instance
print(f"status {report.final_status.value}, final (n, m, k) = {(final.n, final.m, final.budget)}, "
      f"{len(report.events)} events over {report.rounds} rounds")
print("rule fire counts:", dict(sorted(report.rule_fire_counts.items(), key=lambda kv: str(kv[0]))))

# -- events replay exactly -----------------------------------------------------

mirror = original.copy()
replay(mirror, report.events)
mirror.status = report.final_status
print("replaying the log reproduces the kernel:", mirror == report.final_instance)

# -- the kernel-size certificate ------------------------------------------------

print("\n== a rigid 203-cycle with demand 2 everywhere and budget 2 ==")
n = 203
ring = AnnotatedInstance(range(n), [(i, (i + 1) % n) for i in range(n)],
                         {v: 2 for v in range(n)}, budget=2)
report = run_fixpoint(ring)
print(f"no rule applies, {report.final_instance.n} vertices > 101 * 2, so the engine "
      f"decides {report.final_status.value} outright")
