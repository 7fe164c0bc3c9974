"""Immutable simple graphs and their scalar invariants, in pure Python.

Vertices are the integers 0..n-1 and edges are stored canonically as
(min, max) pairs.  Every analysis entry point in the package assumes the
graph is connected, so connectedness is enforced at construction time.
Distances live in the oracle (oracle._element_codes); this module keeps
the package's one reachability walk, preorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    SelfLoopError,
    TooSmallError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]
# An element of a graph is either a vertex id or a canonical edge.
Element = int | Edge


@dataclass(frozen=True)
class Graph:
    """Connected simple undirected graph; build instances via build_graph."""

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class GraphStats:
    """Counting invariants of a connected graph.

    It keeps the graph's adjacency for the 3-connectivity probe, not the
    Graph: a decomposition stored on a Graph holds its stats, and a
    reference back would make every such graph wait for the cyclic GC.
    """

    leaf_set: frozenset[int]
    l1: int
    cyclomatic: int
    min_degree: int
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @cached_property
    def is_3_connected(self) -> bool:
        """Exhaustive pair-removal probe, run on first read only."""
        return _is_3_connected(self.adjacency)


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Validate an edge list and return the canonical connected Graph.

    Raises TooSmallError, VertexOutOfRangeError, SelfLoopError,
    DuplicateEdgeError, or DisconnectedError on bad input.
    """
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    seen: set[Edge] = set()
    neighbors: list[list[int]] = [[] for _ in range(n)]
    # One int object per vertex id, shared by the adjacency and the edges:
    # ids past 256 are not cached by Python, so each input occurrence and
    # each enumerate() would otherwise be an int of its own.
    ids = list(range(n))
    for pair in edge_list:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside [0, {n})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"edge {e} listed twice")
        seen.add(e)
        neighbors[u].append(ids[v])
        neighbors[v].append(ids[u])
    # The edges are read off the adjacency below, so free these tuples
    # first: at n = 1.65e4 they would add about 1.4 MB to the peak.
    del seen

    position = preorder(neighbors)
    if min(position) < 0:
        # index(-1) finds the smallest unreached vertex.
        missing = position.index(-1)
        raise DisconnectedError(f"vertex {missing} not reachable from vertex 0")

    adjacency = tuple(tuple(sorted(a)) for a in neighbors)
    # Read off the sorted adjacency, the edges come out in sorted order.
    return Graph(
        n=n,
        edges=tuple((u, v) for u, a in zip(ids, adjacency) for v in a if u < v),
        adjacency=adjacency,
    )


def preorder(adjacency: Sequence[Sequence[int]], start: int = 0,
             removed: frozenset[int] = frozenset()) -> list[int]:
    """Position of each vertex in a depth-first preorder from start.

    The walk never enters a removed vertex; a vertex it does not reach,
    removed ones included, gets -1.
    """
    position = [-1] * len(adjacency)
    stack = [start]
    visited = 0
    while stack:
        v = stack.pop()
        if position[v] < 0 and v not in removed:
            position[v] = visited
            visited += 1
            stack.extend(adjacency[v])
    return position


def graph_stats(g: Graph) -> GraphStats:
    """Leaf set, leaf count, cyclomatic number, and connectivity probes."""
    adjacency = g.adjacency
    leaves = frozenset(v for v, a in enumerate(adjacency) if len(a) == 1)
    return GraphStats(
        leaf_set=leaves,
        l1=len(leaves),
        cyclomatic=g.m - g.n + 1,
        min_degree=min(map(len, adjacency)),
        adjacency=adjacency,
    )


def _is_3_connected(adjacency: Sequence[Sequence[int]]) -> bool:
    # Exhaustive pair removal is fine at desk scale.  Vertex connectivity is
    # capped by the minimum degree, which rules out all cacti immediately.
    n = len(adjacency)
    if n < 4 or min(map(len, adjacency)) < 3:
        return False
    for u, v in combinations(range(n), 2):
        removed = frozenset((u, v))
        start = next(x for x in range(n) if x not in removed)
        if preorder(adjacency, start, removed).count(-1) != 2:
            return False
    return True
