"""Cactus recognition and per-cycle combinatorial structure.

A cactus is a connected graph whose blocks are single edges or cycles.
biconnected_blocks yields each block as the (tail, head) edges the depth-
first search pushed, in push order; a cycle block's tails, in that order,
are its ring.  decompose reads the blocks once per graph and keeps what
every consumer reads: the structural class, the leaf statistics and the
cycles, each cycle oriented into a deterministic ring with its root
positions marked.
The module also decides geodesic-triple questions on a ring.  Three ring
positions form a geodesic triple exactly when the three arcs they cut have
length at most floor(L/2) each, which is equivalent to their pairwise ring
distances summing to the full ring length L.  A set of marks holds a triple
exactly when it has at least three marks and no gap between cyclically
consecutive marks exceeds floor(L/2).  The gaps sum to L, so at most one
exceeds floor(L/2), and a mark at its middle splits it into two that do
not: the delta term adds at most one vertex per cycle.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple

from .graph import Edge, Graph, GraphStats, graph_stats


class GraphClassTag(enum.Enum):
    """Most specific structural class of a connected graph."""

    TREE = "Tree"
    CYCLE = "Cycle"
    UNICYCLIC = "Unicyclic"
    CACTUS = "Cactus"
    GENERAL = "General"


class GraphClass(NamedTuple):
    tag: GraphClassTag
    cycle_count: int


class CycleInfo(NamedTuple):
    """One cycle of a cactus as an ordered ring with root-vertex flags.

    The ring starts at the cycle's lowest vertex id and its second entry is
    the smaller of the start's two ring neighbors, so the orientation is
    deterministic.  Position i is a root position when ring[i] keeps a
    nontrivial component after the cycle's edges are deleted; in a cactus
    that is exactly deg(ring[i]) >= 3.
    """

    ring: tuple[int, ...]
    root_positions: frozenset[int]

    @property
    def length(self) -> int:
        return len(self.ring)

    @property
    def rt(self) -> int:
        return len(self.root_positions)


def biconnected_blocks(g: Graph) -> Iterator[list[Edge]]:
    """Yield the blocks (maximal biconnected subgraphs), each as it completes.

    A block is the list of its edges in the order the depth-first search
    from vertex 0 pushed them.  Each edge is a (tail, head) pair: a tree
    edge points away from the root and a back edge to its ancestor.

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
    edge_stack: list[Edge] = []

    # Iterative Hopcroft-Tarjan; the graph is connected so one root suffices.
    # Each frame of the DFS path holds a vertex, its parent (-1 at the root)
    # and the iterator over its neighbours, resumed where the scan left off.
    disc[0] = low[0] = 0
    timer = 1
    path = [(0, -1, iter(adjacency[0]))]
    while path:
        v, u, neighbors = path[-1]
        # Scan v's neighbours until a tree edge leads down; the loop makes
        # no call per neighbour, and the for-else runs once v is finished.
        for w in neighbors:
            if disc[w] < 0:
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                path.append((w, v, iter(adjacency[w])))
                break
            if disc[w] < disc[v] and w != u:
                # A back edge.  At the root (disc 0) the first test fails.
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            path.pop()
            if path:
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # The block is the tree edge (u, v) and every edge pushed after it.
                    k = len(edge_stack) - 1
                    while edge_stack[k] != (u, v):
                        k -= 1
                    block = edge_stack[k:]
                    del edge_stack[k:]
                    yield block


class Decomposition(NamedTuple):
    """Block structure of a connected graph, from one biconnected_blocks pass.

    cycles holds every cycle as a deterministic ring, sorted by ring tuple,
    () for a tree, and is None for a graph outside the cactus family.  The
    Graph keeps its decomposition (see decompose), so nothing here refers
    back to it.
    """

    graph_class: GraphClass
    stats: GraphStats
    cycles: tuple[CycleInfo, ...] | None


def decompose(g: Graph) -> Decomposition:
    """The block structure of g, found on the first call and kept on g.

    A Graph is immutable, so later calls on the same object return the
    stored result.  Two threads racing on a fresh graph both compute an
    equal result, and either one may stay.
    """
    d = g._decomposition
    if d is None:
        d = _decompose(g)
        # Graph refuses assignment; its _decomposition slot is written
        # past that guard, here only.
        object.__setattr__(g, "_decomposition", d)
    return d


def _decompose(g: Graph) -> Decomposition:
    fat = 0
    rings = []
    for block in biconnected_blocks(g):
        if len(block) >= 2:
            fat += 1
            ring = [tail for tail, _ in block]
            if len(set(ring)) == len(ring):
                # A cycle: start at its lowest vertex, then turn toward the
                # smaller of that vertex's ring neighbours.
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
        # A unicyclic graph without a leaf is its cycle.
        tag = GraphClassTag.UNICYCLIC if stats.l1 else GraphClassTag.CYCLE
    else:
        tag = GraphClassTag.CACTUS
    adjacency = g.adjacency
    rings.sort()
    cycles = tuple(
        CycleInfo(ring, frozenset([i for i, v in enumerate(ring) if len(adjacency[v]) >= 3]))
        for ring in rings
    )
    return Decomposition(GraphClass(tag, c), stats, cycles)


def classify(g: Graph) -> GraphClass:
    """Most specific tag among Tree/Cycle/Unicyclic/Cactus/General."""
    return decompose(g).graph_class


def has_geodesic_triple(length: int, marked: Iterable[int]) -> bool:
    """True when three marked ring positions cut arcs of length <= floor(L/2).

    That holds exactly when at least three positions are marked and no gap
    between cyclically consecutive marks exceeds floor(L/2).  Each gap lies
    inside one arc of any triple.  Conversely, a mark a, the farthest mark b
    at most floor(L/2) past a, and the mark after b form a triple (starting
    from the mark after a should that third mark be a itself).
    """
    points = sorted(set(marked))
    if points and not 0 <= points[0] <= points[-1] < length:
        raise ValueError(f"marks must lie in [0, {length})")
    if len(points) < 3:
        return False
    half = length // 2
    return (points[0] + length - points[-1] <= half
            and all(b - a <= half for a, b in zip(points, points[1:])))


def augment_for_triple(length: int, marked: Iterable[int]) -> frozenset[int]:
    """Smallest set of unmarked ring positions giving the marks a geodesic triple.

    Among the minimum-cardinality solutions the lexicographically smallest
    index tuple wins.  By the gap rule that size is max(3 - |marks|, 0),
    plus one when three or more marks hold no triple, so a cycle's whole
    completion, its sb part or its sc vertex, is one call.  Returns the
    empty set when the marks already hold a triple.  Raises ValueError for
    a ring shorter than 3 or a mark outside it.

    The completion is built from the gaps.  Below two marks, the smallest
    free positions come first: any two points leave a third that completes
    them, and it lies above both.  Two or more points without a triple
    have one gap (a, b) longer than floor(L/2), unless they are two
    antipodal points, which any free position completes.  The last
    position is then the smallest one inside that gap that leaves both of
    its parts at floor(L/2) or less.
    """
    if length < 3:
        raise ValueError(f"a ring has at least 3 positions, got {length}")
    base = frozenset(marked)
    if has_geodesic_triple(length, base):
        return frozenset()
    # k < 3 marks leave at least 3 - k of 0, 1, 2 free, as many as needed.
    free = [p for p in range(3) if p not in base]
    added = free[:max(2 - len(base), 0)]
    points = sorted(base.union(added))
    half = length // 2
    a, b = points[-1], points[0] + length
    for x, y in zip(points, points[1:]):
        if y - x > half:
            a, b = x, y
    if b - a <= half:
        added.append(free[len(added)])
    else:
        # The positions b - half .. a + half, taken mod L; the smallest is
        # 0 when that range passes L.
        lo, hi = b - half, a + half
        added.append(0 if lo < length <= hi else lo % length)
    return frozenset(added)
