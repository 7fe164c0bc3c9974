"""Building graphs, BFS distances, and the counting invariants.

Run from the repository root after `pip install -e .`:

    python3 demos/01_graphs_and_invariants.py
"""

from collections import deque

from mixedmetric import build_graph, graph_stats


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


# A "bowtie": two triangles sharing vertex 0.
bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
print("graph:", bowtie)
print("edges:", bowtie.edges)
print("adjacency of 0:", bowtie.adjacency[0])

dist = [distances_from(bowtie, v) for v in range(bowtie.n)]
print("\ndistance matrix:")
for row in dist:
    print(" ", *row)

# Distances reach edges too: an edge sits at the distance of its closer
# endpoint.  That single definition is what "mixed" metric dimension adds
# over the classic vertex-only notion.
print("\nd(vertex 1 -> 3):", dist[1][3])
print("d(edge (1,2) -> 3):", min(dist[1][3], dist[2][3]))

stats = graph_stats(bowtie)
print("\nleaves:", sorted(stats.leaf_set), "| l1 =", stats.l1)
print("cyclomatic number m - n + 1 =", stats.cyclomatic)
