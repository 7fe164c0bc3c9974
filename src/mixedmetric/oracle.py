"""Definition-level ground truth for mixed metric generators.

A vertex set S is a mixed metric generator when every pair of distinct
elements of V(G) union E(G) is told apart by the distance to some member
of S.  Verification searches breadth-first from the members of S only, in
chunks, and compares profiles exactly: O(|S| (n + m)) time and
O(_CHUNK n) memory, with no all-pairs matrix.  The exact dimension is
found by exhaustive search over supersets of the forced leaf set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptySetError, InvariantError, TooLargeError, VertexOutOfRangeError
from .graph import Element, Graph, all_pairs_distances, graph_stats

# Members searched from at once by is_mixed_generator.  Its temporaries
# take about 50 bytes per (vertex, member) cell of a chunk, so 64 keeps the
# check of an n = 1.65e4 cactus near 0.1 GB; wider chunks were no faster.
_CHUNK = 64


class FailingPair(NamedTuple):
    """Two distinct elements with identical distance profiles."""

    x: Element
    y: Element


class Profile(NamedTuple):
    """Distances from one element to every generator vertex, in set order."""

    element: Element
    distances: tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: tuple[int, ...]


def element_order(g: Graph) -> tuple[Element, ...]:
    """Vertices in id order, then canonical edges in sorted order."""
    return tuple(range(g.n)) + g.edges


def _element_rows(g: Graph) -> list[tuple[int, ...]]:
    # Row per element: its distance to every vertex of the graph.
    dist = all_pairs_distances(g)
    rows = [tuple(int(d) for d in dist[v]) for v in range(g.n)]
    for u, v in g.edges:
        rows.append(tuple(int(d) for d in np.minimum(dist[u], dist[v])))
    return rows


def element_profiles(g: Graph, members: Iterable[int]) -> tuple[Profile, ...]:
    """Profile of every vertex and edge against the given generator set."""
    order = _checked_members(g, members)
    rows = _element_rows(g)
    return tuple(
        Profile(elem, tuple(row[s] for s in order))
        for elem, row in zip(element_order(g), rows)
    )


def _checked_members(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    order = tuple(sorted(set(members)))
    if not order:
        raise EmptySetError("generator set must be nonempty")
    if order[0] < 0 or order[-1] >= g.n:
        raise VertexOutOfRangeError(f"generator vertices must lie in [0, {g.n})")
    return order


def is_mixed_generator(g: Graph, members: Iterable[int]) -> tuple[bool, FailingPair | None]:
    """Decide whether the set distinguishes all vertex/edge elements.

    On failure also returns the first failing pair, ordering elements as
    vertices before edges and lexicographically within each kind.

    Runs breadth-first search from the members only, _CHUNK of them at a
    time, and refines one class label per element with each chunk's
    distance columns, so two elements end in one class exactly when their
    whole profiles agree.  Time O(|S| (n + m)), memory O(_CHUNK n).
    """
    order = np.array(_checked_members(g, members), dtype=np.intp)
    indptr, indices = _csr(g)
    ends = np.array(g.edges, dtype=np.intp)
    labels = np.zeros(g.n + g.m, dtype=np.intp)
    for start in range(0, order.size, _CHUNK):
        dist = _bfs_distances(indptr, indices, order[start:start + _CHUNK])
        table = np.empty((g.n + g.m, dist.shape[1] + 1), dtype=np.int32)
        table[:, 0] = labels
        table[:g.n, 1:] = dist
        np.minimum(dist[ends[:, 0]], dist[ends[:, 1]], out=table[g.n:, 1:])
        rows = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
        labels = np.unique(rows, return_inverse=True)[1]
    clashing = np.flatnonzero(np.bincount(labels)[labels] > 1)
    if clashing.size == 0:
        return True, None
    # The smallest clashing index opens its class, and that class has the
    # smallest first member; its next member completes the pair.
    first = int(clashing[0])
    second = int(np.flatnonzero(labels == labels[first])[1])
    elements = element_order(g)
    return False, FailingPair(elements[first], elements[second])


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    # Compressed adjacency: the neighbours of v are indices[indptr[v]:indptr[v + 1]].
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum([len(a) for a in g.adjacency], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=2 * g.m)
    return indptr, indices


def _bfs_distances(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop distances from every source at once: an n-by-len(sources) array.

    Level-synchronous: a frontier cell is (vertex, source) flattened to
    vertex * k + source.
    """
    n, k = indptr.size - 1, sources.size
    dist = np.full(n * k, -1, dtype=np.int32)
    stamp = np.empty(n * k, dtype=np.intp)
    frontier = sources * k + np.arange(k)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        vertex, source = np.divmod(frontier, k)
        begin = indptr[vertex]
        count = indptr[vertex + 1] - begin
        # Position of each neighbour in indices, frontier cell by cell.
        shift = np.repeat(begin - (np.cumsum(count) - count), count)
        cells = indices[np.arange(shift.size) + shift] * k + np.repeat(source, count)
        cells = cells[dist[cells] < 0]
        # Keep one copy of each cell: the copy whose position its stamp holds.
        slots = np.arange(cells.size)
        stamp[cells] = slots
        frontier = cells[stamp[cells] == slots]
        dist[frontier] = level
    return dist.reshape(n, k)


def forced_vertices(g: Graph) -> frozenset[int]:
    """Vertices every mixed metric generator must contain: the leaves.

    A missing leaf leaves its neighbor and its pendant edge at equal
    distance from everything else, so no generator can omit a leaf.
    """
    return graph_stats(g).leaf_set


def brute_force_mdim(g: Graph, max_n: int = 16) -> SearchResult:
    """Exact mixed metric dimension by subset enumeration.

    Searches supersets of the forced leaf set in increasing cardinality,
    drawing candidates from non-leaf vertices; the witness is the
    lexicographically first optimum.  Raises TooLargeError for n > max_n.
    """
    if g.n > max_n:
        raise TooLargeError(f"n = {g.n} exceeds the search cap {max_n}")
    rows = _element_rows(g)
    forced = tuple(sorted(forced_vertices(g)))
    candidates = [v for v in range(g.n) if v not in set(forced)]
    for k in range(max(len(forced), 1), g.n + 1):
        for extra in combinations(candidates, k - len(forced)):
            chosen = tuple(sorted(forced + extra))
            if _profiles_distinct(rows, chosen):
                return SearchResult(value=k, witness=chosen)
    raise InvariantError("unreachable: the full vertex set is always a generator")


def _profiles_distinct(rows: Sequence[tuple[int, ...]], members: tuple[int, ...]) -> bool:
    seen = set()
    for row in rows:
        key = tuple(row[s] for s in members)
        if key in seen:
            return False
        seen.add(key)
    return True
