"""Immutable simple graphs and their scalar invariants, in pure Python.

Vertices are the integers 0..n-1 and edges are stored canonically as
(min, max) pairs.  Every analysis entry point in the package assumes the
graph is connected, so connectedness is enforced at construction time.
Distances live in the oracle (oracle._element_codes); this module keeps
the package's one reachability walk, preorder.
"""

from __future__ import annotations

import operator
from itertools import islice
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
    Equality, hashing and pickling read n, edges and adjacency only, never
    the block structure structure.decompose keeps in _decomposition.
    """

    __slots__ = ("n", "edges", "adjacency", "_decomposition", "__weakref__")
    __match_args__ = ("n", "edges", "adjacency")

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: tuple[Edge, ...],
                 adjacency: tuple[tuple[int, ...], ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "edges", edges)
        set_field(self, "adjacency", adjacency)
        set_field(self, "_decomposition", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges, self.adjacency) == (other.n, other.edges, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.adjacency))

    def __reduce__(self):
        # The default protocol restores the slots through setattr, which a
        # Graph refuses.  A copy finds its own block structure on demand.
        return (Graph, (self.n, self.edges, self.adjacency))

    @property
    def m(self) -> int:
        return len(self.edges)

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
    edge is found as a repeated neighbour in the sorted adjacency.  Any
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
    # One int object per vertex id, shared by the adjacency and the edges:
    # ids past 256 are not cached by Python, so each input occurrence and
    # each enumerate() would otherwise be an int of its own.
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
            # Read off the sorted adjacency, the edges come out in sorted
            # order, and an edge listed twice comes out twice in a row.
            edges = tuple((u, v) for u, a in zip(ids, adjacency) for v in a if u < v)
            valid = not any(map(operator.eq, edges, islice(edges, 1, None)))
    except (TypeError, ValueError):
        pass  # a malformed pair or id; the scan below names the first
    if not valid:
        _raise_first_bad_edge(n, edge_list, ids)

    position = preorder(adjacency)
    if min(position) < 0:
        # index(-1) finds the smallest unreached vertex.
        missing = position.index(-1)
        raise DisconnectedError(f"vertex {missing} not reachable from vertex 0")
    return Graph(n=n, edges=edges, adjacency=adjacency)


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


def preorder(adjacency: Sequence[Sequence[int]]) -> list[int]:
    """Position of each vertex in a depth-first preorder from vertex 0.

    A vertex the walk does not reach gets -1.
    """
    position = [-1] * len(adjacency)
    stack = [0]
    visited = 0
    while stack:
        v = stack.pop()
        if position[v] < 0:
            position[v] = visited
            visited += 1
            stack.extend(adjacency[v])
    return position


def graph_stats(g: Graph) -> GraphStats:
    """Leaf set, leaf count and cyclomatic number."""
    leaves = frozenset(v for v, a in enumerate(g.adjacency) if len(a) == 1)
    return GraphStats(leaf_set=leaves, l1=len(leaves), cyclomatic=g.m - g.n + 1)
