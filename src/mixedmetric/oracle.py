"""Definition-level ground truth for mixed metric generators.

A vertex set S is a mixed metric generator when every pair of distinct
elements of V(G) union E(G) is told apart by the distance to some member
of S.  Both checks here rest on one pure-Python breadth-first search from
k sources at once over Python ints used as bitsets (_element_codes).  An
element's code holds in field L (bits L k .. L k + k - 1) the sources at
distance exactly L, so two elements have equal codes exactly when their
distance profiles are equal; an edge's code follows from its endpoints'.
The search yields the codes level by level, and after level L they hold
fields 0..L of the whole codes.  Verification searches from all the
members of S at once and refines a partition of the elements by their
codes exactly, with no all-pairs matrix.  An element alone in its class
stays alone under any refinement (the invariant of partition refinement,
Paige and Tarjan, "Three partition refinement algorithms", 1987), so a
check keys only the live elements, those still sharing their class, and
drops the rest.  The search checks whenever the vertices it reached since
the previous check number _PACE times the live elements, so those checks
cost at most 1 / _PACE of its work, whenever its codes hold
max(_WINDOW // |S|, 2) fields since the previous check, and once it ends.
The labels then hold every field the check keyed, so each code is cut to
its newest field, which the edges' next fields need: an edge's field L is
X_L & ~X_(L-1), X the OR of its endpoints' codes.  Keys after a cut drop
that overlap field.  So verification takes O(levels (n + m)) operations
on ints of up to max(_WINDOW, 2 |S|) bits and O(max(_WINDOW, 2 |S|)
(n + m)) bits of memory, whatever the diameter, where levels is the
largest distance from a member.  It ends once no element is live, so a
generator pays levels only up to there; a failing set pays every level.

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
from itertools import compress, count
from typing import Generator, Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptySetError, InvariantError, TooLargeError, VertexOutOfRangeError
from .graph import Edge, Element, Graph, graph_stats

# Bits of new fields a code holds between checks: is_mixed_generator checks
# once the codes hold max(_WINDOW // |S|, 2) fields since the last check, so
# they hold O(max(_WINDOW, 2 |S|)) bits whatever the diameter.  That is at
# least 16 fields at the |S| <= 242 of perfbench's certificates, which tell
# every element apart by level 4-10, so their searches check on the pace
# alone.
_WINDOW = 4096

# A check keys every live element, so the search checks once the vertices
# it reached since the last check number _PACE times the live elements.
# Checking the certificates of 60 cacti of perfbench's cactus-certify-small
# on a 2-core x86 VM, 2 ran 1.44x as fast as checks at levels 1, 2, 4, 8,
# ..., 1 ran 1.30x, 3 1.07x and 4 0.81x.
_PACE = 2


class FailingPair(NamedTuple):
    """Two distinct elements with identical distance profiles."""

    x: Element
    y: Element


class SearchResult(NamedTuple):
    value: int
    witness: tuple[int, ...]


def is_mixed_generator(g: Graph, members: Iterable[int]) -> tuple[bool, FailingPair | None]:
    """Decide whether the set distinguishes all vertex/edge elements.

    On failure also returns the first failing pair, ordering elements as
    vertices before edges and lexicographically within each kind.

    Searches breadth-first from all the members at once and refines a
    partition of the elements by their codes: two elements end in one
    class exactly when their whole profiles agree.  Only the live
    elements, those still sharing their class, are keyed, and each check
    drops the ones left alone, which no later code can join again.  The
    search checks whenever the vertices it reached since the last check
    number _PACE times the live elements, so those checks cost at most
    1 / _PACE of its work, whenever the codes hold max(_WINDOW // |S|, 2)
    fields since the last check, and once it ends; it stops once no
    element is live.  Each check cuts the codes to their newest field.
    Time O(levels (n + m)) operations on ints of up to max(_WINDOW, 2 |S|)
    bits, where a generator counts levels only up to the check that
    empties the live set and a failing set counts every level; memory
    O(max(_WINDOW, 2 |S|) (n + m)) bits.
    """
    order = tuple(sorted(set(members)))
    if not order:
        raise EmptySetError("generator set must be nonempty")
    if order[0] < 0 or order[-1] >= g.n:
        raise VertexOutOfRangeError(f"generator vertices must lie in [0, {g.n})")
    k = len(order)
    window = max(_WINDOW // k, 2)
    bits = (g.n + g.m).bit_length()
    # The live vertices and edges, each in element order, and the class of
    # each, vertices first, as the last check left it: none before the first.
    vertices: Sequence[int] = range(g.n)
    edges: Sequence[Edge] = g.edges
    labels: list[int] = []
    # Until the first cut a code's lowest field is field 0; after one it is
    # the overlap field, which the labels already hold, and the keys drop it.
    drop = fields = work = 0
    levels = _element_codes(g, order)
    cut = None
    while True:
        codes, reached = levels.send(cut)
        fields += 1
        work += reached
        # A level that reaches no vertex ends the search.  When the level
        # before it was checked, the codes hold no new field, and the
        # classes that check left stand.
        if not reached and fields == 1 and labels:
            break
        cut = not reached or fields >= window or work >= _PACE * (len(vertices) + len(edges))
        if cut:
            vertices, edges, labels = _refine(_keys(codes, k, vertices, edges, drop),
                                              vertices, edges, labels, bits)
            if not labels:
                return True, None
            if not reached:
                break
            drop = k
            fields = work = 0
    # Classes are numbered in the order of their first members, and only
    # shared classes are left: the first live element opens the first
    # failing pair, and the next one in its class closes it.
    live = vertices + edges
    return False, FailingPair(live[0], live[labels.index(labels[0], 1)])


def _keys(codes: list[int], k: int, vertices: Sequence[int], edges: Sequence[Edge],
          drop: int) -> list[int]:
    """The codes of the live vertices, then of the live edges, less their lowest drop bits."""
    # A shift by 0 would still copy every key: about 2.5x the cost of
    # keying the codes as they are, before any cut.
    if not drop:
        keys = [codes[v] for v in vertices]
        keys += _edge_codes(edges, codes, k)
        return keys
    keys = [codes[v] >> drop for v in vertices]
    keys += [code >> drop for code in _edge_codes(edges, codes, k)]
    return keys


def _refine(keys: list[int], vertices: Sequence[int], edges: Sequence[Edge], labels: list[int],
            bits: int) -> tuple[list[int], list[Edge], list[int]]:
    """The live vertices and edges that still share their class, with their classes.

    keys[i] is the code of the i-th live element, vertices first, and is
    packed in place with its label, so an element's class is the pair of
    its label and its code: ints, not tuples, which the collector tracks.
    Classes are numbered in the order of their first members.
    """
    if labels:
        for i, label in enumerate(labels):
            keys[i] = keys[i] << bits | label
    ids: dict[int, int] = {}
    classes = [ids.setdefault(key, len(ids)) for key in keys]
    if len(ids) == len(classes):
        return [], [], []
    sizes = Counter(classes)
    tied = [sizes[c] > 1 for c in classes]
    split = len(vertices)
    return (list(compress(vertices, tied[:split])), list(compress(edges, tied[split:])),
            list(compress(classes, tied)))


def _element_codes(g: Graph,
                   sources: Sequence[int]) -> Generator[tuple[list[int], int], bool | None, None]:
    """Distance codes of the vertices from distinct sources, level by level.

    Bit L k + i of a code (k = len(sources)) is set when the vertex lies at
    distance exactly L from sources[i].  After level 0 and after each later
    level that reaches a vertex, yields the list of codes in vertex order
    and the number of vertices that level reached, and once more with 0
    when the search is spent.  The list is updated in place, so after level
    L it holds fields 0..L of every code, and the whole codes at the end.
    Sending True cuts every code to its newest field: after a cut at level
    C, the list holds fields C..L of every code, shifted down by C k bits.

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
    while frontier:
        if (yield code, len(frontier)):
            # A code holds no field past the current level's.
            code[:] = [c >> shift for c in code]
            shift = 0
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
        for v in reached:
            code[v] |= nxt[v] << shift
        frontier = reached
        cur, nxt = nxt, cur
    yield code, 0


def _edge_codes(edges: Iterable[Edge], codes: list[int], k: int) -> Iterator[int]:
    """Codes of the edges, in their order, from their endpoints' codes.

    Adjacent vertices differ by at most one level and an edge lies at the
    nearer endpoint's, so with X the OR of its endpoints' codes an edge's
    code is X & ~(X << k), built as X ^ (X & (X << k)) so that no negative
    int is made.  Its field L needs only fields L and L - 1 of X, so vertex
    codes cut after a level give the edges' codes cut there.
    Lazy, and it reads only the endpoints' entries, so a caller may extend
    the vertex codes with it in place.
    """
    return ((x := codes[u] | codes[v]) ^ (x & (x << k)) for u, v in edges)


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
    *_, (codes, _) = _element_codes(g, range(g.n))
    codes += _edge_codes(g.edges, codes, g.n)
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
