"""Building graphs, distance matrices, and the counting invariants.

Run from the repository root after `pip install -e .`:

    python3 demos/01_graphs_and_invariants.py
"""

from mixedmetric import all_pairs_distances, build_graph, graph_stats

# A "bowtie": two triangles sharing vertex 0.
bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
print("graph:", bowtie)
print("edges:", bowtie.edges)
print("adjacency of 0:", bowtie.adjacency[0])

dist = all_pairs_distances(bowtie)
print("\ndistance matrix:")
print(dist)

# Distances reach edges too: an edge sits at the distance of its closer
# endpoint.  That single definition is what "mixed" metric dimension adds
# over the classic vertex-only notion.
print("\nd(vertex 1 -> 3):", dist[1, 3])
print("d(edge (1,2) -> 3):", min(dist[1, 3], dist[2, 3]))

stats = graph_stats(bowtie)
print("\nleaves:", sorted(stats.leaf_set), "| l1 =", stats.l1)
print("cyclomatic number m - n + 1 =", stats.cyclomatic)
print("minimum degree:", stats.min_degree)
print("3-connected?", stats.is_3_connected)

# Compare with a graph that actually is 3-connected.
k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
print("\nK4 3-connected?", graph_stats(k4).is_3_connected)
