"""Definition-level ground truth for mixed metric generators.

A vertex set S is a mixed metric generator when every pair of distinct
elements of V(G) union E(G) is told apart by the distance to some member
of S.  Verification searches breadth-first from the members of S only, in
chunks, and compares profiles exactly: O(|S| (n + m)) time and
O(_CHUNK n) memory, with no all-pairs matrix.  That chunked numpy BFS
(_bfs_distances) is the package's one distance routine, and this is the
one module that imports numpy: the formula path never loads it.

The exact dimension is a minimum hitting set (the set-cover view of
Khuller, Raghavachari and Rosenfeld, "Landmarks in graphs", 1996): each
pair of elements is resolved by the vertices where their distance rows
differ, stored as an int bitmask, and a generator is a set that hits every
mask.  Masks the leaves hit, repeats and supersets are dropped.  For each
size upward, a depth-first search picks the non-leaf members in id order
and cuts a branch when some unhit mask has no vertex left in the branch's
suffix or a greedy packing of disjoint unhit masks needs more members than
remain.  The witness is therefore the leaves plus the lexicographically
first non-leaf combination of minimum size, exactly what enumerating
subsets by size would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptySetError, InvariantError, TooLargeError, VertexOutOfRangeError
from .graph import Element, Graph, graph_stats

# Members searched from at once by is_mixed_generator.  Its temporaries
# take about 50 bytes per (vertex, member) cell of a chunk, so 64 keeps the
# check of an n = 1.65e4 cactus near 0.1 GB; wider chunks were no faster.
_CHUNK = 64


class FailingPair(NamedTuple):
    """Two distinct elements with identical distance profiles."""

    x: Element
    y: Element


@dataclass(frozen=True)
class SearchResult:
    value: int
    witness: tuple[int, ...]


def element_order(g: Graph) -> tuple[Element, ...]:
    """Vertices in id order, then canonical edges in sorted order."""
    return tuple(range(g.n)) + g.edges


def _element_distances(g: Graph) -> np.ndarray:
    """Distance from every element, in element_order, to every vertex.

    An (n + m)-by-n array; an edge's row is the smaller of its endpoints' rows.
    """
    dist = _bfs_distances(*_csr(g), np.arange(g.n))
    ends = np.array(g.edges, dtype=np.intp)
    return np.vstack([dist, np.minimum(dist[ends[:, 0]], dist[ends[:, 1]])])


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
    """Exact mixed metric dimension by a pruned minimum hitting-set search.

    Each pair of elements is told apart by exactly the vertices where their
    distance rows differ, so a generator is a vertex set that hits every
    such constraint.  The leaves are forced; for each size k upward from
    max(leaves, 1), a depth-first search picks the other k - leaves members
    from the non-leaf vertices in id order, so its first hit is the
    lexicographically first optimum that subset enumeration by size would
    return.  A branch is cut when an unhit constraint has no vertex left in
    the branch's suffix, or when a greedy packing of disjoint unhit
    constraints needs more members than the branch has left; neither cut
    drops a generator, so the search never tests more sets than the
    enumeration.  Raises TooLargeError for n > max_n, or once the searches
    of all sizes together visit more than _MAX_NODES nodes.
    """
    if g.n > max_n:
        raise TooLargeError(f"n = {g.n} exceeds the search cap {max_n}")
    forced = forced_vertices(g)
    constraints = _constraints(_element_distances(g), sorted(forced))
    candidates = [v for v in range(g.n) if v not in forced]
    nodes = count(1)
    for k in range(max(len(forced), 1), g.n + 1):
        extra = _first_hitting_set(candidates, constraints, k - len(forced), nodes)
        if extra is not None:
            return SearchResult(value=k, witness=tuple(sorted(forced.union(extra))))
    raise InvariantError("unreachable: the full vertex set is always a generator")


# Search nodes one brute_force_mdim call may visit.  A node costs about
# 20-30 us on a 2-core x86 VM, so the budget stops a search within about
# half a minute.  Density-0.4 graphs need at most about 600 nodes up to
# n = 16 (the default cap), 1.1e3 at n = 20 and 5.8e4 at n = 28, so no
# graph the campaign draws comes near it; it stops the searches of hours
# that dense graphs past n = 30 start under a raised --max-n.
_MAX_NODES = 1_000_000

# Cells of the (block rows, elements, vertices) comparison _constraints makes at
# once; it bounds that step's memory to a few MB at any n.
_PAIR_CELLS = 1 << 22


def _constraints(rows: np.ndarray, forced: Sequence[int]) -> list[int]:
    """Minimal bitmasks of the vertices resolving each pair the forced leaves miss.

    Bit v of a mask is set when vertex v tells the pair's two element rows
    apart.  Pairs a forced vertex resolves are dropped, and so are repeats
    and supersets of other masks; the rest come smallest first.
    """
    count, n = rows.shape
    block = max(1, _PAIR_CELLS // (count * n))
    kept = np.empty((0, -(-n // 8)), dtype=np.uint8)
    for start in range(0, count, block):
        stop = min(start + block, count)
        differ = rows[start:stop, None, :] != rows[None, :, :]
        # Each pair once: the second element comes after the first.
        differ = differ[np.arange(count) > np.arange(start, stop)[:, None]]
        differ = differ[~differ[:, list(forced)].any(axis=1)]
        masks = np.concatenate([kept, np.packbits(differ, axis=1, bitorder="little")])
        masks = masks[np.argsort(np.bitwise_count(masks).sum(axis=1), kind="stable")]
        minimal = []
        while len(masks):
            minimal.append(masks[0])
            masks = masks[((masks & masks[0]) != masks[0]).any(axis=1)]
        kept = np.array(minimal, dtype=np.uint8).reshape(-1, kept.shape[1])
    return [int.from_bytes(mask.tobytes(), "little") for mask in kept]


def _first_hitting_set(candidates: Sequence[int], constraints: list[int],
                       need: int, nodes: Iterator[int]) -> tuple[int, ...] | None:
    """Lexicographically first `need` candidates hitting every constraint, or None.

    The constraints hold candidate bits only.  At a node whose next pick
    comes from candidates[pos:], every unhit constraint must keep a vertex
    there, so the pick may not pass the lowest top bit among them.  Each
    node draws its number from `nodes`; past _MAX_NODES the search raises
    TooLargeError.
    """
    def extend(pos: int, need: int, unhit: list[int]) -> tuple[int, ...] | None:
        if next(nodes) > _MAX_NODES:
            raise TooLargeError(f"the exact search passed its budget of {_MAX_NODES} nodes")
        if not unhit:
            # Sizes are tried upward, so no smaller set hits everything and
            # need is 0 here.
            return ()
        if need == 0 or pos + need > len(candidates):
            return None
        low = candidates[pos]
        last = min(c.bit_length() for c in unhit) - 1
        if last < low:
            return None
        # Disjoint constraints, restricted to the suffix, each need their own member.
        used = packed = 0
        for c in unhit:
            part = c >> low
            if not part & used:
                used |= part
                packed += 1
                if packed > need:
                    return None
        for i in range(pos, len(candidates) - need + 1):
            v = candidates[i]
            if v > last:
                break
            bit = 1 << v
            found = extend(i + 1, need - 1, [c for c in unhit if not c & bit])
            if found is not None:
                return (v,) + found
        return None

    return extend(0, need, constraints)
