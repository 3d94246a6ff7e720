"""Rotation systems: certify planarity, walk faces, split a cycle into sides.

Everything here is coordinate-free.  A planar embedding is just a cyclic
order of neighbors around each vertex; faces and "which vertices sit
inside this cycle" fall out combinatorially.
"""

from vecdom import AnnotatedInstance, NonPlanarError, cycle_sides, embed

# -- embed a small maximal planar graph -----------------------------------

print("== octahedron ==")
octa_edges = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (2, 3), (3, 4), (4, 1),
    (5, 1), (5, 2), (5, 3), (5, 4),
]
octa = AnnotatedInstance(range(6), octa_edges)
rs = embed(octa)
print(f"n={octa.n} m={octa.m} faces={rs.face_count}  (Euler: 6 - 12 + 8 = 2)")
print("rotation around vertex 0:", rs.rotation[0])
print("first three faces:", list(rs.faces[:3]))

# -- non-planar graphs are refused with a witness -------------------------

print("\n== K5 is refused ==")
k5 = AnnotatedInstance(range(5), [(u, v) for u in range(5) for v in range(u + 1, 5)])
try:
    embed(k5)
except NonPlanarError as err:
    print("refused:", err)

# -- the two sides of a cycle ---------------------------------------------

print("\n== splitting the octahedron along a 4-cycle ==")
side_a, side_b = cycle_sides(rs, [1, 2, 3, 4])
print(f"side 0 holds {sorted(side_a)}, side 1 holds {sorted(side_b)}")
print("together with the cycle that is every vertex:",
      len(side_a) + len(side_b) + 4 == octa.n)

# -- sides respect nesting -------------------------------------------------

print("\n== a triangle hanging inside a hexagon ==")
edges = [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8), (0, 6)]
nested = AnnotatedInstance(range(9), edges)
inner, outer = cycle_sides(embed(nested), [0, 1, 2, 3, 4, 5])
sides = sorted((sorted(inner), sorted(outer)), key=len)
print("empty side:", sides[0], " triangle side:", sides[1])
