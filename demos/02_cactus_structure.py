"""Recognizing cacti and reading their per-cycle structure.

    python3 demos/02_cactus_structure.py
"""

from mixedmetric import (
    augment_for_triple,
    build_graph,
    classify,
    decompose,
    has_geodesic_triple,
)

# An 8-ring with a pendant leaf at each of the ring vertices 0, 1, 2.
ring = [(i, (i + 1) % 8) for i in range(8)]
pendants = [(0, 8), (1, 9), (2, 10)]
g = build_graph(11, ring + pendants)

info = classify(g)
print("class:", info.tag.value, "| cycles:", info.cycle_count)

# decompose finds the blocks once and keeps them on g; its cycles are
# None outside the cactus family.
(cycle,) = decompose(g).cycles
print("ring:", cycle.ring)
print("root positions (degree >= 3):", sorted(cycle.root_positions), "| rt =", cycle.rt)

# Once the ring's edges are deleted, each pendant leaf hangs from its one
# neighbor on the ring, so the leaves 8, 9, 10 activate the root positions.
hang = {leaf: cycle.ring.index(g.adjacency[leaf][0]) for leaf in (8, 9, 10)}
print("ring position each leaf hangs at:", hang)
marked = frozenset(hang.values())
print("the root positions exactly?", marked == cycle.root_positions)

# Clustered positions 0, 1, 2 cut the 8-ring into arcs 1, 1, 6: the long
# arc exceeds half the ring, so no geodesic triple exists yet.
print("geodesic triple already?", has_geodesic_triple(cycle.length, marked))

# One extra ring position fixes that; the smallest choice is position 4,
# because (0, 2, 4) cuts arcs 2, 2, 4 which all fit within half the ring.
extra = augment_for_triple(cycle.length, marked)
print("smallest completion:", sorted(extra))
print("after adding it:", has_geodesic_triple(cycle.length, marked | extra))
