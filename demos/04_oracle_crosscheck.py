"""The definition-level oracle, and the formula agreeing with it.

    python3 demos/04_oracle_crosscheck.py
"""

from collections import deque

from mixedmetric import (
    CactusSpec,
    brute_force_mdim,
    build_graph,
    graph_stats,
    is_mixed_generator,
    mdim_exact,
    random_cactus,
)


def distances_from(g, source):
    """Hop counts from one vertex, by breadth-first search over g.adjacency."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


p3 = build_graph(3, [(0, 1), (1, 2)])

# The center alone cannot tell the two endpoints apart.
ok, pair = is_mixed_generator(p3, {1})
print("P3 with {1}:", ok, "| first failing pair:", pair)

# Both endpoints do the job; the profile table shows why.  Each row is an
# element's distances to 0 and 2; an edge sits at its closer endpoint.
ok, _ = is_mixed_generator(p3, {0, 2})
print("P3 with {0, 2}:", ok)
dist = {s: distances_from(p3, s) for s in (0, 2)}
# Vertices first, then the edges, the order a failing pair follows.
for element in (*range(p3.n), *p3.edges):
    ends = [element] if isinstance(element, int) else list(element)
    print("   ", element, "->", tuple(min(dist[s][e] for e in ends) for s in (0, 2)))

# Leaves are forced: dropping one leaves its pendant edge and neighbor
# indistinguishable, so the search only ranges over the non-leaf vertices.
tadpole = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])
print("\ntadpole forced vertices:", sorted(graph_stats(tadpole).leaf_set))
result = brute_force_mdim(tadpole)
print("tadpole exhaustive search:", result.value, "witness", result.witness)
print("tadpole formula:", mdim_exact(tadpole).total)

# The acceptance suite does this over hundreds of random cacti; here is a
# fully worked one.
g = random_cactus(CactusSpec(cycle_count=2, cycle_length_range=(3, 5),
                             extra_tree_edges=2, seed=2024))
print(f"\nrandom cactus: {g}")
print("formula:", mdim_exact(g).total, "| oracle:", brute_force_mdim(g).value)
