"""Cactus recognition and per-cycle combinatorial structure.

A cactus is a connected graph whose blocks are single edges or cycles.
decompose finds the blocks once and keeps what every consumer reads: the
structural class, the leaf statistics and the cycles, each cycle oriented
into a deterministic ring with its root positions marked.  The module also
decides geodesic-triple questions on a ring.  Three ring positions form a
geodesic triple exactly when the three arcs they cut have length at most
floor(L/2) each, which is equivalent to their pairwise ring distances
summing to the full ring length L.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import InfeasibleError, NotACactusError
from .graph import Edge, Graph, GraphStats, canonical_edge, graph_stats


class GraphClassTag(enum.Enum):
    """Most specific structural class of a connected graph."""

    TREE = "Tree"
    CYCLE = "Cycle"
    UNICYCLIC = "Unicyclic"
    CACTUS = "Cactus"
    GENERAL = "General"


#: Tags whose graphs the exact formula applies to.
CACTUS_FAMILY = frozenset(
    {GraphClassTag.TREE, GraphClassTag.CYCLE, GraphClassTag.UNICYCLIC, GraphClassTag.CACTUS}
)


@dataclass(frozen=True)
class GraphClass:
    tag: GraphClassTag
    cycle_count: int

    @property
    def in_cactus_family(self) -> bool:
        return self.tag in CACTUS_FAMILY


@dataclass(frozen=True)
class CycleInfo:
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


def biconnected_blocks(g: Graph) -> list[frozenset[Edge]]:
    """Blocks (maximal biconnected subgraphs) as an edge partition."""
    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack: list[Edge] = []
    blocks: list[frozenset[Edge]] = []

    # Iterative Hopcroft-Tarjan; the graph is connected so one root suffices.
    timer = 0
    disc[0] = low[0] = timer
    timer += 1
    work: list[tuple[int, int, Iterable[int]]] = [(0, -1, iter(g.adjacency[0]))]
    while work:
        v, parent, it = work[-1]
        w = next(it, None)
        if w is None:
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    blocks.append(frozenset(canonical_edge(*e) for e in block))
            continue
        if w == parent:
            continue
        if disc[w] < 0:
            edge_stack.append((v, w))
            disc[w] = low[w] = timer
            timer += 1
            work.append((w, v, iter(g.adjacency[w])))
        elif disc[w] < disc[v]:
            edge_stack.append((v, w))
            low[v] = min(low[v], disc[w])
    return blocks


def _block_is_cycle(block: frozenset[Edge]) -> bool:
    vertices = {v for e in block for v in e}
    return len(block) >= 2 and len(block) == len(vertices)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Block structure of a connected graph, from one biconnected_blocks pass.

    The class tag is fixed at construction.  The leaf statistics and the
    cycle rings are built on first read, so a caller that only classifies
    pays for neither.
    """

    graph_class: GraphClass
    graph: Graph = field(repr=False)
    cycle_blocks: tuple[frozenset[Edge], ...] = field(repr=False)

    @cached_property
    def stats(self) -> GraphStats:
        """Leaf set, leaf count and cyclomatic number of the graph."""
        return graph_stats(self.graph)

    @cached_property
    def cycles(self) -> tuple[CycleInfo, ...]:
        """All cycles as deterministic rings, sorted by ring tuple; () for a tree.

        Raises NotACactusError when some block is neither an edge nor a cycle.
        """
        if not self.graph_class.in_cactus_family:
            raise NotACactusError("graph has a block that is not an edge or a cycle")
        cycles = []
        for block in self.cycle_blocks:
            local: dict[int, list[int]] = {}
            for u, v in block:
                local.setdefault(u, []).append(v)
                local.setdefault(v, []).append(u)
            start = min(local)
            ring = [start, min(local[start])]
            while len(ring) < len(local):
                a, b = local[ring[-1]]
                ring.append(a if b == ring[-2] else b)
            roots = frozenset(i for i, v in enumerate(ring) if self.graph.degree(v) >= 3)
            cycles.append(CycleInfo(ring=tuple(ring), root_positions=roots))
        return tuple(sorted(cycles, key=lambda c: c.ring))


def decompose(g: Graph) -> Decomposition:
    """Find the blocks of g once and tag its class; stats and cycles follow on first read."""
    fat = [b for b in biconnected_blocks(g) if len(b) >= 2]
    cycle_blocks = tuple(b for b in fat if _block_is_cycle(b))
    c = len(cycle_blocks)
    if c != len(fat):
        tag = GraphClassTag.GENERAL
    elif c == 0:
        tag = GraphClassTag.TREE
    elif c == 1:
        is_pure_ring = g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))
        tag = GraphClassTag.CYCLE if is_pure_ring else GraphClassTag.UNICYCLIC
    else:
        tag = GraphClassTag.CACTUS
    return Decomposition(graph_class=GraphClass(tag, c), graph=g, cycle_blocks=cycle_blocks)


def classify(g: Graph) -> GraphClass:
    """Most specific tag among Tree/Cycle/Unicyclic/Cactus/General."""
    return decompose(g).graph_class


def extract_cycles(g: Graph) -> tuple[CycleInfo, ...]:
    """All cycles of a cactus as deterministic rings, sorted by ring tuple.

    Raises NotACactusError when some block is neither an edge nor a cycle.
    Returns () for a tree.
    """
    return decompose(g).cycles


def has_geodesic_triple(length: int, marked: Iterable[int]) -> bool:
    """True when three marked ring positions cut arcs of length <= floor(L/2).

    False whenever fewer than three positions are marked.
    """
    points = sorted(set(marked))
    if points and not 0 <= points[0] <= points[-1] < length:
        raise ValueError(f"marks must lie in [0, {length})")
    if len(points) < 3:
        return False
    half = length // 2
    # Pair scan: for sorted x < y the third point z must land in a window.
    for i, x in enumerate(points):
        z_floor = x + length - half
        for j in range(i + 1, len(points)):
            y = points[j]
            if y - x > half:
                break
            lo = max(y + 1, z_floor)
            k = bisect_left(points, lo)
            if k < len(points) and points[k] <= y + half:
                return True
    return False


def augment_for_triple(length: int, marked: Iterable[int],
                       forbidden: Iterable[int] = ()) -> frozenset[int]:
    """Smallest set of extra ring positions giving the marks a geodesic triple.

    Candidates avoid forbidden and already-marked positions.  Among the
    minimum-cardinality solutions the lexicographically smallest index
    tuple wins; at most three additions are ever needed.  Returns the empty
    set when the marks already contain a triple.  Raises InfeasibleError
    when forbidden positions block every augmentation.
    """
    base = frozenset(marked)
    if has_geodesic_triple(length, base):
        return frozenset()
    blocked = frozenset(forbidden)
    candidates = [p for p in range(length) if p not in blocked and p not in base]
    for size in (1, 2, 3):
        if len(base) + size < 3:
            continue
        for extra in combinations(candidates, size):
            if has_geodesic_triple(length, base.union(extra)):
                return frozenset(extra)
    raise InfeasibleError(
        f"no addition of up to 3 allowed positions completes a triple on C_{length}"
    )
