"""Definition-level references the package's faster code is compared against.

The verifier and the exact search build the full all-pairs distance table
with networkx, so they share no distance code with the package, and
compare every element's profile as a tuple: the verifier groups whole
profiles, and the exact search enumerates vertex subsets by size.
Quadratic in n and exponential in the dimension, so only for the small
graphs the tests compare the package's oracle against.  The random graph
draw lists every non-edge and samples that list, where the package's
random_connected_graph samples ranks and maps them to pairs.  The
triple completion tries every combination of free ring positions, and the
parser checks every line in full, where the package builds the completion
from the gaps and reads a file's leading plain lines in blocks.  The block
search keeps every block as the list of its edges, and the decomposition
tells a cycle from the block's edges, where the package's search keeps a
stack of vertices and counts each block's back edges.  build_graph's
errors are found by checking each edge in turn and then connectivity with
networkx, where the package lets its block search rule out a repeated edge
and an unreached vertex at once.
"""

import random
from itertools import combinations
from operator import itemgetter

import networkx as nx

from mixedmetric import (
    CycleInfo,
    Decomposition,
    DisconnectedError,
    DuplicateEdgeError,
    FailingPair,
    GraphClass,
    GraphClassTag,
    ParseError,
    SearchResult,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    graph_stats,
    has_geodesic_triple,
)
from mixedmetric.conjecture import _prufer_edges


def _element_rows(g):
    # Row per element, vertices then edges: its distance to every vertex.
    dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(g.edges)))
    vertex_rows = [tuple(dist[v][s] for s in range(g.n)) for v in range(g.n)]
    return vertex_rows + [tuple(map(min, vertex_rows[u], vertex_rows[v])) for u, v in g.edges]


def reference_is_mixed_generator(g, members):
    """Verdict and first failing pair, by grouping whole profile tuples."""
    order = sorted(set(members))
    by_profile = {}
    for idx, row in enumerate(_element_rows(g)):
        by_profile.setdefault(tuple(row[s] for s in order), []).append(idx)
    clashes = [group for group in by_profile.values() if len(group) > 1]
    if not clashes:
        return True, None
    first, second = min((group[0], group[1]) for group in clashes)
    elements = (*range(g.n), *g.edges)
    return False, FailingPair(elements[first], elements[second])


def reference_brute_force_mdim(g):
    """Dimension and witness by subset enumeration over supersets of the leaves.

    Sizes upward from max(leaves, 1); within a size, the other members are
    combinations of the non-leaf vertices in lexicographic order, and the
    first set whose profiles are all distinct is the witness.
    """
    rows = _element_rows(g)
    forced = tuple(v for v in range(g.n) if g.degree(v) == 1)
    candidates = [v for v in range(g.n) if v not in set(forced)]
    for k in range(max(len(forced), 1), g.n + 1):
        for extra in combinations(candidates, k - len(forced)):
            chosen = tuple(sorted(forced + extra))
            if _profiles_distinct(rows, chosen):
                return SearchResult(value=k, witness=chosen)
    raise AssertionError("the full vertex set is always a generator")


def _profiles_distinct(rows, members):
    seen = set()
    for row in rows:
        key = tuple(row[s] for s in members)
        if key in seen:
            return False
        seen.add(key)
    return True


def reference_random_connected_graph(n, m, seed):
    """random_connected_graph drawn from the listed non-edges, O(n^2) memory."""
    rng = random.Random(seed)
    tree = [(0, 1)] if n == 2 else _prufer_edges(n, rng)
    present = {(min(u, v), max(u, v)) for u, v in tree}
    non_edges = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    )
    return build_graph(n, tree + rng.sample(non_edges, m - (n - 1)))


def reference_augment_for_triple(length, marked):
    """augment_for_triple by trying free positions in combinations order.

    Sizes upward from the fewest that can reach three marks; the first
    combination whose union with the marks holds a triple wins.
    """
    base = frozenset(marked)
    if has_geodesic_triple(length, base):
        return frozenset()
    candidates = [p for p in range(length) if p not in base]
    for size in (1, 2, 3):
        if len(base) + size < 3:
            continue
        for extra in combinations(candidates, size):
            if has_geodesic_triple(length, base.union(extra)):
                return frozenset(extra)
    raise AssertionError(f"the gap rule completes C_{length} with at most 3 positions")


def _decimal(text):
    digits = text.strip()
    if not (digits.isascii() and digits.lstrip("-").isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(digits)


def reference_parse_graph_file(path):
    """parse_graph_file with every line taking the full check."""
    header = None
    edges = []
    lineno = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(lineno, "not UTF-8 text") from None
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if len(fields) != 2:
                raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}")
            try:
                a, b = _decimal(fields[0]), _decimal(fields[1])
            except ValueError:
                raise ParseError(lineno, f"expected two integers, got {raw.strip()!r}") from None
            if header is None:
                header = (a, b)
            elif len(edges) < header[1]:
                edges.append((a, b))
            else:
                raise ParseError(lineno, f"more than the declared {header[1]} edges")
    if header is None:
        raise ParseError(lineno + 1, "missing 'n m' header line")
    if len(edges) != header[1]:
        raise ParseError(lineno + 1, f"declared {header[1]} edges, found {len(edges)}")
    n, m = header
    if m < n - 1:
        raise DisconnectedError(f"{m} edges cannot connect {n} vertices")
    return build_graph(n, edges)


def reference_build_graph_error(n, edge_list):
    """The error build_graph raises on an edge list of n >= 2 vertices, or None.

    Each edge is checked in input order, its range, then a self-loop, then
    a repeat of an earlier edge; only a list with no bad edge is checked
    for connectivity, which networkx decides.  The error is returned as
    its type and message.
    """
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            return VertexOutOfRangeError, f"edge ({u}, {v}) outside [0, {n})"
        if u == v:
            return SelfLoopError, f"self-loop at vertex {u}"
        e = (min(u, v), max(u, v))
        if e in seen:
            return DuplicateEdgeError, f"edge {e} listed twice"
        seen.add(e)
    h = nx.Graph(seen)
    h.add_nodes_from(range(n))
    missed = sorted(set(range(n)) - nx.node_connected_component(h, 0))
    if missed:
        return DisconnectedError, f"vertex {missed[0]} not reachable from vertex 0"
    return None


def reference_blocks(g):
    """Yield the blocks (maximal biconnected subgraphs), each as it completes.

    A block is the list of its edges in the order the depth-first search
    from vertex 0 pushed them.  Each edge is a (tail, head) pair: a tree
    edge points away from the root and a back edge to its ancestor.  A
    leaf other than the root is met by one tree edge only, which is a
    block by itself, so it is yielded there, and the leaf gets no frame.
    A block found on a vertex's return cuts the edge stack at the index
    its frame holds.

    A block of two or more edges has at least as many edges as vertices,
    and as many only when it is a cycle.  Distinct tails allow no more
    edges than vertices, and a cycle's tails are distinct: its tree edges
    are a path from its first vertex, pushed in order, closed by its one
    back edge.  So a block is a cycle exactly when it has two or more
    edges and distinct tails, and its tails, in order, walk the ring.
    """
    adjacency = g.adjacency
    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack = []

    # Iterative Hopcroft-Tarjan; the graph is connected so one root suffices.
    # Each frame of the DFS path holds a vertex, its parent (-1 at the root),
    # the iterator over its neighbours, resumed where the scan left off, and
    # the edge stack's index of the tree edge into it.
    disc[0] = low[0] = 0
    timer = 1
    path = [(0, -1, iter(adjacency[0]), 0)]
    while path:
        v, u, neighbors, k = path[-1]
        for w in neighbors:
            if disc[w] < 0:
                if len(adjacency[w]) == 1:
                    yield [(v, w)]
                    continue
                disc[w] = low[w] = timer
                timer += 1
                path.append((w, v, iter(adjacency[w]), len(edge_stack)))
                edge_stack.append((v, w))
                break
            if disc[w] < disc[v] and w != u:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            path.pop()
            if path:
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = edge_stack[k:]
                    del edge_stack[k:]
                    yield block


def reference_decompose(g):
    """decompose, with each cycle told from its block's edges (reference_blocks)."""
    fat = 0
    rings = []
    for block in reference_blocks(g):
        if len(block) >= 2:
            fat += 1
            ring = list(map(itemgetter(0), block))
            if len(set(ring)) == len(ring):
                i = ring.index(min(ring))
                ring = ring[i:] + ring[:i]
                if ring[-1] < ring[1]:
                    ring[1:] = ring[:0:-1]
                rings.append(tuple(ring))
    stats = graph_stats(g)
    c = len(rings)
    if c != fat:
        return Decomposition(GraphClass(GraphClassTag.GENERAL, c), stats, None)
    if c == 0:
        tag = GraphClassTag.TREE
    elif c == 1:
        tag = GraphClassTag.UNICYCLIC if stats.l1 else GraphClassTag.CYCLE
    else:
        tag = GraphClassTag.CACTUS
    cycles = tuple(CycleInfo(ring, frozenset(i for i, v in enumerate(ring) if g.degree(v) >= 3))
                   for ring in sorted(rings))
    return Decomposition(GraphClass(tag, c), stats, cycles)
