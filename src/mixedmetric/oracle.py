"""Definition-level ground truth for mixed metric generators.

A vertex set S is a mixed metric generator when every pair of distinct
elements of V(G) union E(G) is told apart by the distance to some member
of S.  Both checks here rest on one pure-Python breadth-first search from
k sources at once over Python ints used as bitsets (_element_codes).  An
element's code holds in field L (bits L k .. L k + k - 1) the sources at
distance exactly L, so two elements have equal codes exactly when their
distance profiles are equal; an edge's code follows from its endpoints'.
The search yields the codes level by level, and after level L they hold
fields 0..L of the whole codes.  Verification searches from the members
of S only, _CHUNK at a time in depth-first preorder, and compares codes
exactly, with no all-pairs matrix: O(|S| / _CHUNK levels (n + m))
operations on ints of up to _CHUNK levels bits, and O(_CHUNK levels
(n + m)) bits of memory, where levels is the largest distance from a
member.  The last chunk's search stops at the first checked level whose
cut codes already tell every element apart, so a generator pays that
chunk's levels only up to there; a failing set pays every level.

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

from collections import Counter
from itertools import chain, count, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptySetError, InvariantError, TooLargeError, VertexOutOfRangeError
from .graph import Element, Graph, graph_stats, preorder

# Sources searched from at once by is_mixed_generator; a chunk's codes hold
# about _CHUNK levels (n + m) bits.  256 checks every set perfbench
# certifies in one pass (its 120-cycle cacti need |S| <= 242 over 200
# seeds).  The |S| = 5600 certificate of the n = 16299 cactus of
# CactusSpec(3000, (3, 8), 3000, 12345) checked in 7.6 s at 66 MB peak RSS
# with 128, 5.8-6.0 s at 85 MB with 256 and 4.6 s at 132 MB with 512, in
# one quiet period of a 2-core x86 VM whose speed varies by up to 2.5x.
_CHUNK = 256


class FailingPair(NamedTuple):
    """Two distinct elements with identical distance profiles."""

    x: Element
    y: Element


class SearchResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def element_order(g: Graph) -> tuple[Element, ...]:
    """Vertices in id order, then canonical edges in sorted order."""
    return tuple(range(g.n)) + g.edges


def is_mixed_generator(g: Graph, members: Iterable[int]) -> tuple[bool, FailingPair | None]:
    """Decide whether the set distinguishes all vertex/edge elements.

    On failure also returns the first failing pair, ordering elements as
    vertices before edges and lexicographically within each kind.

    Searches breadth-first from the members only, _CHUNK of them at a
    time, and refines one class label per element with each chunk's codes,
    so two elements end in one class exactly when their whole profiles
    agree.  The last chunk's search stops at the first of levels 1, 2, 4,
    8, ... where the codes cut there already tell every element apart.
    Time O(|S| / _CHUNK levels (n + m)) operations on ints of up to _CHUNK
    levels bits, where a generator's last chunk counts levels only up to
    that stop and a failing set counts every level; memory O(_CHUNK
    levels (n + m)) bits.
    """
    order = tuple(sorted(set(members)))
    if not order:
        raise EmptySetError("generator set must be nonempty")
    if order[0] < 0 or order[-1] >= g.n:
        raise VertexOutOfRangeError(f"generator vertices must lie in [0, {g.n})")
    if len(order) > _CHUNK:
        # Chunks take the members in depth-first preorder, so each chunk's
        # sources lie close together and reach a vertex at fewer levels: on
        # the n = 16299 check (see _CHUNK) this cut 22.7 s to 13.8 s.
        position = preorder(g.adjacency)
        order = sorted(order, key=position.__getitem__)
    bits = (g.n + g.m).bit_length()
    labels: list[int] = []
    for start in range(0, len(order), _CHUNK):
        sources = order[start:start + _CHUNK]
        k = len(sources)
        last = start + _CHUNK >= len(order)
        for level, codes in enumerate(_element_codes(g, sources)):
            # The last chunk checks levels 1, 2, 4, 8, ...  Codes cut after
            # a level are exact prefixes of the whole codes, so if they tell
            # every element apart, so do the whole profiles.  Earlier chunks
            # need every level for their labels, and checking every level
            # cost more than it saved.
            if last and level and not level & (level - 1) and _separated(g, codes, k, labels, bits):
                return True, None
        # Extended in place: a copy would hold the codes twice at the peak.
        codes += _edge_codes(g, codes, k)
        if labels:
            # Keys are ints, not (label, code) tuples, which the collector
            # tracks, and are packed in place, so no second list is built.
            for i, label in enumerate(labels):
                codes[i] = codes[i] << bits | label
        ids: dict[int, int] = {}
        labels = [ids.setdefault(code, len(ids)) for code in codes]
        if len(ids) == len(labels):
            # Every element is alone in its class, and later chunks only split classes.
            return True, None
        # Free this chunk's codes before the next chunk's search builds its own.
        del codes, ids
    # Labels number the classes in the order of their first members, so the
    # smallest shared label opens the pair; its class's next member closes it.
    sizes = Counter(labels)
    label = min(label for label, size in sizes.items() if size > 1)
    first = labels.index(label)
    second = labels.index(label, first + 1)
    elements = element_order(g)
    return False, FailingPair(elements[first], elements[second])


def _separated(g: Graph, codes: list[int], k: int, labels: list[int], bits: int) -> bool:
    """Whether vertex codes cut after some level, with their edges' and the
    earlier chunks' labels, tell every element apart.

    The vertices' keys come first and the edges' one at a time, so a check
    stops at the first repeat without building the other edges' codes.
    """
    keys = chain(codes, _edge_codes(g, codes, k))
    if labels:
        keys = (code << bits | label for code, label in zip(keys, labels))
    seen = set(islice(keys, g.n))
    if len(seen) < g.n:
        return False
    for key in keys:
        if key in seen:
            return False
        seen.add(key)
    return True


def _element_codes(g: Graph, sources: Sequence[int]) -> Iterator[list[int]]:
    """Distance codes of the vertices from distinct sources, level by level.

    Bit L k + i of a code (k = len(sources)) is set when the vertex lies at
    distance exactly L from sources[i].  Yields one list, in vertex order,
    after level 0 and after each later level that reaches a vertex; the
    list is updated in place, so after level L it holds fields 0..L of
    every code, and the whole codes once the generator is exhausted.

    Level-synchronous: cur[v] holds the sources whose search reached v at
    the current level, nxt[v] those reaching it at the next, and unreached[v]
    those yet to reach it; only the frontier's vertices are walked.
    """
    adjacency = g.adjacency
    k = len(sources)
    unreached = [(1 << k) - 1] * g.n
    cur = [0] * g.n
    nxt = [0] * g.n
    code = [0] * g.n
    for i, s in enumerate(sources):
        cur[s] = code[s] = 1 << i
        unreached[s] ^= 1 << i
    frontier = list(sources)
    shift = 0
    while True:
        yield code
        shift += k
        reached = []
        for u in frontier:
            bits = cur[u]
            cur[u] = 0
            for v in adjacency[u]:
                new = bits & unreached[v]
                if new:
                    unreached[v] ^= new
                    if not nxt[v]:
                        reached.append(v)
                    nxt[v] |= new
        if not reached:
            return
        for v in reached:
            code[v] |= nxt[v] << shift
        frontier = reached
        cur, nxt = nxt, cur


def _edge_codes(g: Graph, codes: list[int], k: int) -> Iterator[int]:
    """Codes of the edges, in g.edges order, from their endpoints' codes.

    Adjacent vertices differ by at most one level and an edge lies at the
    nearer endpoint's, so with X the OR of its endpoints' codes an edge's
    code is X & ~(X << k), built as X ^ (X & (X << k)) so that no negative
    int is made.  Its field L needs only fields L and L - 1 of X, so vertex
    codes cut after a level give the edges' codes cut there.
    Lazy, and it reads only the first g.n entries, so a caller may extend
    the vertex codes with it in place.
    """
    return ((x := codes[u] | codes[v]) ^ (x & (x << k)) for u, v in g.edges)


def brute_force_mdim(g: Graph, max_n: int = 16) -> SearchResult:
    """Exact mixed metric dimension by a pruned minimum hitting-set search.

    Each pair of elements is told apart by exactly the vertices where their
    distance rows differ, so a generator is a vertex set that hits every
    such constraint.  The leaves are forced; for each size k upward from
    max(leaves, 1), a depth-first search picks the other k - leaves members
    from the non-leaf vertices in id order, so its first hit is the
    lexicographically first optimum that subset enumeration by size would
    return.  No pick passes the last vertex of an unhit constraint, and a
    branch is cut when a greedy packing of disjoint unhit constraints needs
    more members than the branch has left; neither rule drops a generator,
    so the search never tests more sets than the enumeration.  Raises
    TooLargeError for n > max_n, or once the searches of all sizes together
    visit more than _MAX_NODES nodes.
    """
    if g.n > max_n:
        raise TooLargeError(f"n = {g.n} exceeds the search cap {max_n}")
    # A set missing a leaf cannot tell the leaf's neighbour from its pendant edge.
    forced = graph_stats(g).leaf_set
    *_, codes = _element_codes(g, range(g.n))
    codes += _edge_codes(g, codes, g.n)
    constraints = _constraints(codes, g.n, forced)
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


def _constraints(codes: list[int], n: int, forced: Iterable[int]) -> list[int]:
    """Minimal bitmasks of the vertices resolving each pair the forced leaves miss.

    The codes come from a search from every vertex in id order, so bit v of
    each n-bit field stands for vertex v.  Each vertex's bit is set in one
    field of a code only, so the fields of a & b share no bit, and their OR,
    the vertices that leave the pair at equal distance, is their sum,
    (a & b) mod (2^n - 1).  That is never all n bits, since two distinct
    elements differ at a vertex of one of them (the vertex itself or an
    edge's endpoint), so the mask of the vertices that tell the pair apart
    is its complement.  Pairs a forced vertex resolves are dropped, and so
    are repeats and supersets of other masks; the rest come smallest first.
    """
    full = (1 << n) - 1
    drop = sum(1 << v for v in forced)
    # A dict drops repeats and keeps the pairs' order, which the sort by
    # size keeps within each size; a set's order cost the search 30% more
    # nodes on dense graphs (58k -> 76k at n = 28).
    masks = {mask: None for i, a in enumerate(codes) for b in codes[i + 1:]
             if not (mask := full ^ (a & b) % full) & drop}
    # A superset is hit whenever its subset is: dropping it about halves the search time.
    minimal: list[int] = []
    for mask in sorted(masks, key=int.bit_count):
        for kept in minimal:
            if kept & mask == kept:
                break
        else:
            minimal.append(mask)
    return minimal


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
        if need == 0:
            return None
        # need >= 1 and every call keeps pos + need <= len(candidates): candidates[pos] exists.
        low = candidates[pos]
        # The smallest non-negative int has the smallest bit length.
        last = min(unhit).bit_length() - 1
        # Disjoint constraints, restricted to the suffix, each need their own
        # member.  This cut about halves the search time on density-0.4 graphs.
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
