"""Build annotated instances by hand and decide them with both exact solvers.

An instance is a planar graph where every vertex demands some number of
selected neighbors, a budget caps the selection size, and forbidden
vertices may never be selected.  Run this file directly; every section
prints what it is doing.
"""

from vecdom import (
    AnnotatedInstance,
    dominates,
    neighborhood,
    solve_bb,
    solve_brute,
    validate,
    verify_solution,
)

# -- a wheel with unit demands ------------------------------------------

print("== wheel on 7 vertices, every vertex wants one selected neighbor ==")
rim = [(i, i % 6 + 1) for i in range(1, 7)]
spokes = [(0, v) for v in range(1, 7)]
wheel = AnnotatedInstance(range(7), rim + spokes, {v: 1 for v in range(7)}, budget=2)
print("violations:", validate(wheel))

result = solve_brute(wheel)
print(f"brute force: {result.answer}, witness {sorted(result.witness)}, "
      f"{result.nodes_explored} sets tried")
result = solve_bb(wheel)
print(f"branch and bound: {result.answer}, witness {sorted(result.witness)}, "
      f"{result.nodes_explored} nodes")
print("witness checks out:", verify_solution(wheel, result.witness))

# -- demands above one --------------------------------------------------

print("\n== same wheel, but the hub insists on three selected neighbors ==")
greedy_hub = AnnotatedInstance(range(7), rim + spokes, {0: 3}, budget=2)
print("budget 2:", solve_bb(greedy_hub).answer, "(the hub itself also works: it needs nothing once selected)")
greedy_hub.budget = 1
print("budget 1:", solve_bb(greedy_hub).answer)

# -- forbidden vertices -------------------------------------------------

print("\n== forbidding the hub changes the game ==")
no_hub = AnnotatedInstance(range(7), rim + spokes, {v: 1 for v in range(7)},
                           budget=2, forbidden=[0])
print("budget 2, hub forbidden:", solve_bb(no_hub).answer)
no_hub.budget = 3
print("budget 3, hub forbidden:", solve_bb(no_hub).answer,
      "witness", sorted(solve_bb(no_hub).witness))

# -- demanding neighborhoods --------------------------------------------

print("\n== demand-aware neighborhoods ==")
print(f"hub with its demanding neighbors: {sorted(neighborhood(wheel, 0))}")
print("does {1, 4} dominate the rim?", dominates(wheel, {1, 4}, range(1, 7)))
print("does the hub alone dominate everyone?", dominates(wheel, {0}, range(7)))
