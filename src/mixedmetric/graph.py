"""Immutable simple graphs and their scalar invariants, in pure Python.

Vertices are the integers 0..n-1.  A Graph stores n, the edge count m
and the sorted adjacency; its edges, canonical (min, max) pairs in sorted
order, are derived from the adjacency when first read, since the path
from a file to the structural formula never reads them.  Every analysis
entry point in the package assumes the graph is connected, so
connectedness is enforced at construction time, by the package's one
reachability walk.  Distances live in the oracle (oracle._element_codes).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    InvariantError,
    SelfLoopError,
    TooSmallError,
    VertexOutOfRangeError,
)

Edge = tuple[int, int]
# An element of a graph is either a vertex id or a canonical edge.
Element = int | Edge


class Graph:
    """Connected simple undirected graph; build instances via build_graph.

    Immutable: assigning or deleting an attribute raises AttributeError.
    Equality, hashing and pickling read n and adjacency only, never the
    two memos filled on first read: _edges, the edges derived from the
    adjacency when the constructor is given None for them, and
    _decomposition, the block structure structure.decompose keeps.
    """

    __slots__ = ("n", "m", "adjacency", "_edges", "_decomposition", "__weakref__")
    __match_args__ = ("n", "edges", "adjacency")

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: tuple[Edge, ...] | None,
                 adjacency: tuple[tuple[int, ...], ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "m", sum(map(len, adjacency)) // 2)
        set_field(self, "adjacency", adjacency)
        set_field(self, "_edges", edges)
        set_field(self, "_decomposition", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The canonical (min, max) edges in sorted order, derived on first read.

        The endpoints are the adjacency's own int objects, so the edges add
        no int past those.  Two threads racing on a fresh graph both derive
        an equal tuple, and either one may stay.
        """
        edges = self._edges
        if edges is None:
            adjacency = self.adjacency
            # One object per vertex id, as the adjacency holds it: a
            # connected graph lists every vertex as someone's neighbour.
            ids = sorted(set(chain.from_iterable(adjacency)))
            edges = tuple((u, v) for u, a in zip(ids, adjacency) for v in a if u < v)
            object.__setattr__(self, "_edges", edges)
        return edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __reduce__(self):
        # The default protocol restores the slots through setattr, which a
        # Graph refuses.  A copy derives its own edges and block structure
        # on demand.
        return (Graph, (self.n, None, self.adjacency))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class GraphStats(NamedTuple):
    """Counting invariants of a connected graph."""

    leaf_set: frozenset[int]
    l1: int
    cyclomatic: int


def build_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Validate an edge list and return the canonical connected Graph.

    Raises TooSmallError, VertexOutOfRangeError, SelfLoopError,
    DuplicateEdgeError, or DisconnectedError on bad input.  A duplicate
    edge is found as a neighbour listed twice in the adjacency.  Any
    error names the first bad edge in input order, as a scan that checks
    each edge in turn would, and a disconnected graph is reported only
    when every edge is valid.
    """
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    if not isinstance(edge_list, (list, tuple)):
        # A one-shot iterable: the error scan below may read it again.
        edge_list = list(edge_list)
    neighbors: list[list[int] | tuple[int, ...]] = [[] for _ in range(n)]
    # One int object per vertex id, held by the adjacency and reused by the
    # edges derived from it: ids past 256 are not cached by Python, so each
    # input occurrence would otherwise be an int of its own.
    ids = list(range(n))
    valid = False
    try:
        for u, v in edge_list:
            if u == v or not (0 <= u < n and 0 <= v < n):
                break
            neighbors[u].append(ids[v])
            neighbors[v].append(ids[u])
        else:
            # Each list gives way to its tuple, so the two never all coexist.
            for i, a in enumerate(neighbors):
                a.sort()
                neighbors[i] = tuple(a)
            adjacency = tuple(neighbors)
            # An edge listed twice puts each endpoint twice in the other's list.
            valid = sum(map(len, map(set, adjacency))) == 2 * len(edge_list)
    except (TypeError, ValueError):
        pass  # a malformed pair or id; the scan below names the first
    if not valid:
        _raise_first_bad_edge(n, edge_list, ids)

    # A depth-first walk from vertex 0; index(False) names the smallest
    # vertex it misses.
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    if not all(seen):
        raise DisconnectedError(f"vertex {seen.index(False)} not reachable from vertex 0")
    # The edges are derived from the adjacency when first read.
    return Graph(n=n, edges=None, adjacency=adjacency)


def _raise_first_bad_edge(n: int, edge_list: Iterable[Sequence[int]], ids: list[int]) -> None:
    """Raise the error of the first bad edge, checking each edge in turn.

    build_graph's error path: it checks what build_graph's loop and its
    duplicate test do, in input order, so the error is the one a single
    checking pass would raise first.
    """
    seen: set[Edge] = set()
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
        # Indexed as build_graph indexes them, so an id that is no int
        # fails at the same edge.
        ids[u], ids[v]
    raise InvariantError("the edge scan found no fault in an edge list build_graph refused")


def graph_stats(g: Graph) -> GraphStats:
    """Leaf set, leaf count and cyclomatic number."""
    leaves = frozenset(v for v, a in enumerate(g.adjacency) if len(a) == 1)
    return GraphStats(leaf_set=leaves, l1=len(leaves), cyclomatic=g.m - g.n + 1)
