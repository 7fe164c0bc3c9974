"""Immutable simple graphs, their block search and scalar invariants, in pure Python.

Vertices are the integers 0..n-1.  A Graph stores n, the edge count m
and the sorted adjacency; its edges, canonical (min, max) pairs in sorted
order, are derived from the adjacency when first read, since the path
from a file to the structural formula never reads them.  Every analysis
entry point in the package assumes the graph is connected, so
connectedness is enforced at construction time.

Construction runs the package's one depth-first search, the vertex-stack
form of Hopcroft and Tarjan's block search (Tarjan 1972; Hopcroft and
Tarjan 1973).  A block closes at a tree edge (u, v) and holds u, the
vertices pushed on the stack from v on, and the back edges found since v
was pushed.  With no back edge the block is a bridge; with one it is a
cycle, and u followed by those vertices in push order walks its ring; with
two or more it is neither.  Only the root and the vertices of degree 3 or
more get a frame on the search's path.  The search enters each unreached
neighbour by one walk: through the run of degree-2 vertices that starts
there, perhaps empty, each vertex pushed and left by the edge it did not
come in on, to the vertex that ends it.  No other edge meets a run, so the
walk closes by that vertex: a leaf is marked reached and the run's edges
are bridges; a vertex of degree 3 or more gets a frame, above one frame
that stands for a nonempty run; at a repeated edge the run's edges are
bridges, at a back edge to the vertex it left it is a ring, and at a back
edge above that vertex it waits on the stack for a higher block.  Only the
rings are kept, no edge or block, and a connected graph is a cactus
exactly when their count is its cyclomatic number m - n + 1.  The search
proves the graph connected when it reaches every vertex, and on a cactus
it also proves that no edge is listed twice.
Every Graph is built with its rings, which structure.decompose reads to
make its decomposition.  Distances live in the oracle (oracle._element_codes).
"""

from __future__ import annotations

from collections.abc import Sized
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
    Besides n and adjacency it holds _rings, the rings of build_graph's
    block search, from which structure.decompose builds the block
    structure, and two memos: _edges, the edges derived from the adjacency
    on first read, and _decomposition, the block structure decompose
    keeps.  Equality and hashing read n and adjacency only, and pickling
    carries the rings too, never a memo.
    """

    __slots__ = ("n", "m", "adjacency", "_edges", "_rings", "_decomposition", "__weakref__")
    __match_args__ = ("n", "edges", "adjacency")

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...],
                 rings: tuple[tuple[int, ...], ...]) -> None:
        set_field = object.__setattr__
        set_field(self, "n", n)
        set_field(self, "m", sum(map(len, adjacency)) // 2)
        set_field(self, "adjacency", adjacency)
        set_field(self, "_edges", None)
        set_field(self, "_rings", rings)
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
        # Graph refuses.  A copy carries the rings and derives its own edges
        # and block structure from them on demand.
        return (Graph, (self.n, self.adjacency, self._rings))

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
    DuplicateEdgeError, or DisconnectedError on bad input.  Any error
    names the first bad edge in input order, as a scan that checks each
    edge in turn would, and a disconnected graph is reported only when
    every edge is valid.  The block search runs here, once, and the Graph
    is built with its rings.
    """
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    if not isinstance(edge_list, Sized):
        # Perhaps a one-shot iterable: the error scan below may read it
        # again.  A sized one, such as the parser's view of its flat list,
        # is read twice as it is.
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
            valid = True
    except (TypeError, ValueError):
        pass  # a malformed pair or id; the scan below names the first
    if not valid:
        _raise_first_bad_edge(n, edge_list, ids)
    # Each list gives way to its tuple, so the two never all coexist.
    for i, a in enumerate(neighbors):
        a.sort()
        neighbors[i] = tuple(a)
    adjacency = tuple(neighbors)

    rings, missing = _block_search(adjacency)
    # Past the n - 1 tree edges of a search that reaches every vertex, each
    # listed edge is a back edge or a repeated tree edge, which the search
    # cannot see; a repeated back edge is met twice in one block.  A ring
    # is a block with one back edge, so m - n + 1 rings leave room for no
    # repeat, and only other graphs need the test that finds a neighbour
    # listed twice.
    if missing >= 0 or len(rings) != len(edge_list) - n + 1:
        if sum(map(len, map(set, adjacency))) != 2 * len(edge_list):
            _raise_first_bad_edge(n, edge_list, ids)
        if missing >= 0:
            raise DisconnectedError(f"vertex {missing} not reachable from vertex 0")
    return Graph(n, adjacency, tuple(rings))


def _block_search(adjacency: tuple[tuple[int, ...], ...]) -> tuple[list[tuple[int, ...]], int]:
    """The rings of the cycle blocks the search from vertex 0 meets, and the
    smallest vertex it misses (-1 when it reaches them all).

    Each ring starts at its lowest vertex and turns toward the smaller of
    that vertex's ring neighbours (structure.CycleInfo).  The search's
    per-vertex lists and discovery times are freed on return.
    """
    # Iterative Hopcroft-Tarjan from vertex 0.  Each frame of the DFS path
    # holds a vertex, its parent (-1 at the root), the iterator over its
    # neighbours, resumed where the scan left off, the index at which the
    # vertex went on the vertex stack, and the count of back edges pending
    # at that push.  Only the root and vertices of degree 3 or more get a
    # frame of their own: a leaf needs none, and a run of degree-2 vertices
    # is walked inline, with at most one frame for the whole run.
    n = len(adjacency)
    disc = [-1] * n
    low = [0] * n
    stack = [0]
    pending = 0
    rings = []
    disc[0] = low[0] = 0
    timer = 1
    done = iter(())
    path = [(0, -1, iter(adjacency[0]), 0, 0)]
    while path:
        v, u, neighbors, i, owed = path[-1]
        # Scan v's neighbours until a tree edge leads down; the loop makes
        # no call per neighbour, and the for-else runs once v is finished.
        for w in neighbors:
            if disc[w] < 0:
                # The run of degree-2 vertices from w, perhaps empty: each
                # has one way on, so the walk pushes it and steps to the
                # neighbour it did not come from.  No edge but the run's own
                # meets a run vertex, so the walk closes by the vertex y
                # that ends it, x being the run's last vertex (v for none).
                top = len(stack)
                x, y = v, w
                while disc[y] < 0 and len(adjacency[y]) == 2:
                    disc[y] = timer
                    timer += 1
                    stack.append(y)
                    p, q = adjacency[y]
                    x, y = y, q if p == x else p
                if disc[y] < 0:
                    disc[y] = low[y] = timer
                    timer += 1
                    if len(adjacency[y]) > 1:
                        # At a vertex of degree 3 or more: one frame stands
                        # for a nonempty run, its last vertex under v with
                        # nothing left to scan, and y's frame goes above it.
                        if x != v:
                            low[x] = disc[x]
                            path.append((x, v, done, top, pending))
                        path.append((y, x, iter(adjacency[y]), len(stack), pending))
                        stack.append(y)
                        break
                    # At a leaf, marked reached above: the run's edges and
                    # the edge into the leaf are bridges.
                elif y == v and p != q:
                    # At a back edge to v, which a reached y is when x's two
                    # entries p and q differ: v and the run are a ring.
                    rings.append(_ring(v, stack[top:]))
                elif p != q:
                    # At a back edge above v: the run stays on the stack for
                    # the block that closes higher up.
                    pending += 1
                    if disc[y] < low[v]:
                        low[v] = disc[y]
                    continue
                # At a leaf, a ring at v, or a repeated edge (p == q, both
                # of x's entries, so x has no way on): the run is popped.
                del stack[top:]
                continue
            if disc[w] < disc[v] and w != u:
                # A back edge.  At the root (disc 0) the first test fails.
                pending += 1
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            path.pop()
            if path:
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # The block of tree edge (u, v): u and the vertices
                    # pushed from v on, with the back edges found since.
                    if pending - owed == 1:
                        rings.append(_ring(u, stack[i:]))
                    del stack[i:]
                    pending = owed
    # The timer counts the vertices reached.
    return rings, -1 if timer == n else disc.index(-1)


def _ring(u: int, tail: list[int]) -> tuple[int, ...]:
    """The cycle u, *tail, walked from u down its tree path, as a ring that
    starts at its lowest vertex and turns toward the smaller of that
    vertex's ring neighbours."""
    ring = [u, *tail]
    least = min(tail)
    if least < u:
        k = ring.index(least)
        ring = ring[k:] + ring[:k]
    if ring[-1] < ring[1]:
        ring[1:] = ring[:0:-1]
    return tuple(ring)


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
