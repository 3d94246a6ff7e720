"""Candidate regions: typed boundary paths, vertex classes, coloring.

The showpiece is the worst-case region: an eight-vertex boundary around
fifteen interior vertices, every one of them dominated by the two anchors.
Regions like this are why reduced instances stay small: anything buried
inside is either replaceable (and gets colored blue) or one of a handful
of exempt vertices.
"""

from vecdom import (
    AnnotatedInstance,
    RegionIndex,
    embed,
    kernel_of,
    rule7,
    run_fixpoint,
    solve_bb,
)
from vecdom.regions import classify_path

# Anchors 0 and 4; demand-2 boundary vertices 1 and 5; three central
# vertices 8, 9, 10 tied to both of them; two mirrored clusters fill the
# rest of the disk.
EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
    (1, 9), (5, 9), (1, 10), (5, 10), (11, 9), (11, 4), (12, 9), (12, 4), (12, 5),
    (1, 8), (5, 8), (8, 10), (1, 14), (1, 13), (14, 11), (15, 13), (15, 14), (15, 4),
    (16, 13), (16, 2), (16, 4), (17, 10), (17, 0), (18, 10), (18, 0), (18, 1),
    (5, 20), (5, 19), (20, 17), (21, 19), (21, 20), (21, 0), (22, 19), (22, 6), (22, 0),
]
DEMAND = {0: 2, 1: 2, 2: 0, 3: 1, 4: 2, 5: 2, 6: 0, 7: 1, 8: 0, 9: 0, 10: 0,
          11: 1, 12: 1, 13: 0, 14: 0, 15: 1, 16: 1, 17: 1, 18: 1, 19: 0, 20: 0,
          21: 1, 22: 1}

inst = AnnotatedInstance(range(23), EDGES, DEMAND, budget=4)

# -- typed boundary paths ----------------------------------------------------

print("== typed paths between the anchors ==")
top = [0, 1, 2, 3, 4]
print("path", top, "types read forward:", classify_path(inst, top, 0, 4),
      "read backward:", classify_path(inst, list(reversed(top)), 4, 0))
# One index per embedding serves every anchor pair, keeping at most
# vecdom.regions.MAX_PATHS_PER_PAIR (512) typed paths per pair.
index = RegionIndex(inst, embed(inst))
# typed_paths(0) maps each far anchor to the interiors of its typed paths
# and whether the cap cut them; an interior's length fixes the type.
interiors = index.typed_paths(0)[4][0]
print(f"{len(interiors)} typed paths between 0 and 4; the two four-edge boundary arcs:")
for inner in interiors:
    path = (0, *inner, 4)
    if len(path) == 5 and set(path) <= {0, 1, 2, 3, 4, 5, 6, 7}:
        (path_type,) = classify_path(inst, path, 0, 4) | classify_path(inst, path[::-1], 4, 0)
        print("  ", path, "type", path_type)

# -- the region and its vertex classes ------------------------------------------

print("\n== the maximal candidate region between the anchors ==")
region = index.regions(0, 4)[0]
print(f"boundary {sorted(region.boundary)}")
print(f"interior: {len(region.interior)} vertices")
print(f"demand-2 boundary vertices: {sorted(region.high_boundary)}")
print(f"crosslinked centrals:       {sorted(region.crosslinks)}")
print(f"deep core:                  {sorted(region.core)}")

# -- coloring with exemptions ----------------------------------------------------

print("\n== rule 7 on this region ==")
events = rule7(inst.copy(), region)
colored = sorted(v for ev in events for v in ev.newly_blue)
print("colored blue:", colored)
print("13 and 19 stay selectable: each covers an anchor's core share with a central")

# -- the full engine keeps the answer --------------------------------------------

print("\n== reduction preserves the answer across budgets ==")
for k in (2, 3, 4):
    fresh = AnnotatedInstance(range(23), EDGES, DEMAND, budget=k)
    direct = solve_bb(fresh.copy()).answer
    reduced = solve_bb(kernel_of(run_fixpoint(fresh))).answer
    print(f"  budget {k}: direct {direct}, after reduction {reduced}")
