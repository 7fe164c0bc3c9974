"""Graph construction, BFS distances, and scalar invariants."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    DisconnectedError,
    DuplicateEdgeError,
    Graph,
    SelfLoopError,
    TooSmallError,
    VertexOutOfRangeError,
    build_graph,
    graph_stats,
    random_cactus,
    random_connected_graph,
)
from mixedmetric.oracle import _edge_codes, _element_codes
from mixedmetric.structure import decompose

from graphs import bowtie, complete, cycle, path, star, tadpole
from reference import _element_rows, reference_build_graph_error, reference_decompose


class TestBuildGraph:
    def test_path_construction(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.edges == ((0, 1), (1, 2))

    def test_adjacency_is_symmetric_and_sorted(self):
        g = build_graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.adjacency[0] == (1, 2, 3)
        for u in range(g.n):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_one_int_object_per_vertex(self):
        # Parsed ints past 256 are fresh objects at each occurrence; the
        # graph keeps one per vertex id, and its edges reuse the adjacency's.
        n = 600
        g = build_graph(n, [(int(str(i)), int(str((i + 1) % n))) for i in range(n)])
        held = {id(v) for a in g.adjacency for v in a}
        assert len(held) == n
        assert all(id(u) in held and id(v) in held for u, v in g.edges)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(0, 1), (1, 1)])

    def test_disconnected_rejected(self):
        # The message names the smallest vertex the search from 0 misses.
        with pytest.raises(DisconnectedError, match="^vertex 2 not reachable from vertex 0$"):
            build_graph(4, [(0, 1), (2, 3)])

    def test_too_small_rejected(self):
        with pytest.raises(TooSmallError):
            build_graph(1, [])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            build_graph(3, [(0, 1), (1, 3)])

    @pytest.mark.parametrize("edge_list, error, message", [
        ([(0, 1), (1, 0), (0, 5)], DuplicateEdgeError, "edge (0, 1) listed twice"),
        ([(0, 5), (0, 1), (1, 0)], VertexOutOfRangeError, "edge (0, 5) outside [0, 3)"),
        ([(1, 1), (0, 2), (2, 0)], SelfLoopError, "self-loop at vertex 1"),
        ([(0, 2), (2, 0), (1, 1)], DuplicateEdgeError, "edge (0, 2) listed twice"),
        ([(-1, 0), (1, 2), (2, 1)], VertexOutOfRangeError, "edge (-1, 0) outside [0, 3)"),
        ([(1, 2), (2, 1), (0, -1)], DuplicateEdgeError, "edge (1, 2) listed twice"),
        # A fault after a disconnected but otherwise valid list still wins.
        ([(1, 2), (0, 0)], SelfLoopError, "self-loop at vertex 0"),
        # Ids that are no ints and pairs of the wrong length keep their place.
        ([(0, 1), (1, 0), (0, 1.5)], DuplicateEdgeError, "edge (0, 1) listed twice"),
        ([(0, 1.5), (0, 1), (1, 0)], TypeError, "list indices must be integers or slices, not float"),
        ([(0, 1), (1, 0), (2,)], DuplicateEdgeError, "edge (0, 1) listed twice"),
        ([(2,), (0, 1), (1, 0)], ValueError, "not enough values to unpack (expected 2, got 1)"),
    ], ids=["duplicate-then-range", "range-then-duplicate", "loop-then-duplicate",
            "duplicate-then-loop", "negative-then-duplicate", "duplicate-then-negative",
            "loop-in-disconnected", "duplicate-then-float", "float-then-duplicate",
            "duplicate-then-short-pair", "short-pair-then-duplicate"])
    def test_error_names_the_first_bad_edge(self, edge_list, error, message):
        with pytest.raises(error) as caught:
            build_graph(3, edge_list)
        assert str(caught.value) == message
        # A one-shot iterable gives the same error.
        with pytest.raises(error) as caught:
            build_graph(3, iter(edge_list))
        assert str(caught.value) == message

    def test_generator_input_with_a_duplicate(self):
        pairs = ((u, (u + 1) % 4) for u in (0, 1, 2, 3, 2))
        with pytest.raises(DuplicateEdgeError, match=r"^edge \(2, 3\) listed twice$"):
            build_graph(4, pairs)

    def test_generator_input_builds(self):
        g = build_graph(4, ((u, (u + 1) % 4) for u in range(4)))
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))


@st.composite
def edge_lists(draw):
    """A vertex count and an edge list, often with a repeated edge or a fault.

    A tree, cactus or general graph, alone, beside a second one or beside
    isolated vertices; then relabelled, shuffled and flipped.  The repeat
    copies any edge, in either orientation, to any position, so the block
    search meets it as a tree edge or as a back edge.  A self-loop or an
    out-of-range pair may go anywhere, before or after the repeat.
    """
    def component(offset):
        kind = draw(st.sampled_from(["tree", "cactus", "general"]))
        if kind == "cactus":
            n, edges = 1, []
            for _ in range(draw(st.integers(1, 4))):
                at = draw(st.integers(0, n - 1))
                length = draw(st.sampled_from([2, 3, 4, 5]))
                # Length 2 hangs a leaf; longer ones a ring through `at`.
                ring = [at, *range(n, n + length - 1)]
                edges += [(ring[i - 1], ring[i]) for i in range(length == 2, length)]
                n += length - 1
        else:
            n = draw(st.integers(2, 9))
            edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
            if kind == "general":
                non_edges = sorted({(u, v) for v in range(n) for u in range(v)} - set(edges))
                if non_edges:
                    edges += draw(st.lists(st.sampled_from(non_edges), unique=True, max_size=6))
        return n, [(u + offset, v + offset) for u, v in edges]

    n, edges = component(0)
    beside = draw(st.sampled_from(["nothing", "component", "isolated"]))
    if beside == "component":
        k, more = component(n)
        n, edges = n + k, edges + more
    elif beside == "isolated":
        n += draw(st.integers(1, 2))
    label = draw(st.permutations(range(n)))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(label[v], label[u]) if flip else (label[u], label[v])
             for (u, v), flip in zip(draw(st.permutations(edges)), flips)]
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([(u, v), (v, u)])))
    fault = draw(st.sampled_from([None, "loop", "range"]))
    if fault is not None:
        x = draw(st.integers(0, n - 1))
        pair = (x, x) if fault == "loop" else (x, draw(st.sampled_from([-1, n, n + 1])))
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from([pair, pair[::-1]])))
    return n, edges


@given(edge_lists())
@settings(max_examples=400, deadline=None)
def test_build_graph_errors_match_the_edge_by_edge_reference(case):
    # The block search rules out repeats on cacti and unreached vertices
    # everywhere; the error's type, message and precedence stay those of
    # one pass over the edges followed by a connectivity check.
    n, edges = case
    want = reference_build_graph_error(n, edges)
    for edge_list in (edges, iter(edges)):
        if want is None:
            g = build_graph(n, edge_list)
            assert g.edges == tuple(sorted({(min(e), max(e)) for e in edges}))
            # The rings it is built with decompose as the edge-list search's blocks do.
            assert decompose(g) == reference_decompose(g)
        else:
            with pytest.raises(want[0]) as caught:
                build_graph(n, edge_list)
            assert (type(caught.value), str(caught.value)) == want


@pytest.mark.parametrize("n, edges, message", [
    # Vertex 2's two entries are the one edge (1, 2).
    (3, [(0, 1), (1, 2), (2, 1)], "edge (1, 2) listed twice"),
    # A ring of two: the edge (0, 1), listed twice, is each vertex's two entries.
    (2, [(0, 1), (1, 0)], "edge (0, 1) listed twice"),
    # The ring 0 1 2 3 with its closing edge (3, 0) listed twice.
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 3)], "edge (0, 3) listed twice"),
    # A pendant path 2 3 4 5 off the triangle 0 1 2, ending in (4, 5) twice.
    (6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 4)], "edge (4, 5) listed twice"),
], ids=["path", "two-ring", "ring-closing-edge", "pendant-path"])
def test_a_repeat_on_a_run_of_degree_2_vertices_is_reported(n, edges, message):
    # The search walks each run of degree-2 vertices without a frame.  A
    # run vertex whose two entries are one edge is a dead end, not a back
    # edge closing a ring of two, and a back edge met twice makes a block
    # that is no ring, so the ring count leaves each repeat to the set test.
    assert reference_build_graph_error(n, edges) == (DuplicateEdgeError, message)
    with pytest.raises(DuplicateEdgeError) as caught:
        build_graph(n, edges)
    assert str(caught.value) == message


class TestGraphRecord:
    """A Graph is an immutable value of n and adjacency; its rings and memos are not part of it."""

    def test_decomposing_one_of_two_equal_graphs_keeps_them_equal(self):
        g, h = tadpole(), tadpole()
        before = hash(h)
        decompose(g)
        assert g == h and h == g
        assert hash(g) == hash(h) == before

    def test_never_equals_its_field_tuple(self):
        g = tadpole()
        fields = (g.n, g.edges, g.adjacency)
        assert g != fields and fields != g
        assert len({g, fields}) == 2

    def test_class_pattern_matches_the_fields_in_order(self):
        g = tadpole()
        match g:
            case Graph(n, edges, adjacency):
                assert (n, edges, adjacency) == (g.n, g.edges, g.adjacency)
            case _:
                pytest.fail("no match")

    @pytest.mark.parametrize("name", ["n", "m", "edges", "adjacency", "_edges", "_rings",
                                      "_decomposition", "other"])
    def test_attributes_refuse_assignment_and_deletion(self, name):
        g = tadpole()
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert g == tadpole()

    def test_a_decomposed_graph_pickles_and_copies(self):
        g = tadpole()
        d = decompose(g)
        pickled = [pickle.loads(pickle.dumps(g, protocol=p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in (*pickled, copy.copy(g), copy.deepcopy(g)):
            assert type(other) is Graph
            assert other == g and hash(other) == hash(g)
            assert (other.n, other.edges, other.adjacency) == (g.n, g.edges, g.adjacency)
            assert decompose(other) == d
            assert repr(other) == repr(g) == "Graph(n=6, m=6)"


def decode(codes, k):
    """Distance rows of the oracle's codes: a bit in field L means distance L."""
    rows = []
    for code in codes:
        row = [None] * k
        level = 0
        while code:
            for i in range(k):
                if code >> i & 1:
                    assert row[i] is None, "a source in two fields"
                    row[i] = level
            code >>= k
            level += 1
        assert None not in row, "a source in no field"
        rows.append(tuple(row))
    return rows


def element_codes(g, sources):
    """The oracle's codes, vertices then edges: its search run to the last level, then the edges'."""
    *_, (codes, _) = _element_codes(g, sources)
    return codes + list(_edge_codes(g.edges, codes, len(sources)))


def element_rows(g):
    # The package's one BFS, from every vertex: one row per element, vertices then edges.
    return decode(element_codes(g, range(g.n)), g.n)


def distances(g):
    return element_rows(g)[:g.n]


class TestDistances:
    def test_path_distance(self):
        assert distances(path(3))[0][2] == 2

    def test_cycle_uses_shorter_arc(self):
        assert distances(cycle(5))[0][3] == 2

    def test_complete_graph_all_ones(self):
        d = distances(complete(4))
        assert sum(map(sum, d)) == 12 and max(map(max, d)) == 1


def element_distance(g, element, source):
    return element_rows(g)[(*range(g.n), *g.edges).index(element)][source]


class TestElementDistance:
    def test_edge_takes_closer_endpoint(self):
        assert element_distance(path(3), (1, 2), 0) == 1

    def test_vertex_to_itself(self):
        assert element_distance(path(3), 1, 1) == 0

    def test_square_ring_edge(self):
        assert element_distance(cycle(4), (2, 3), 0) == 1


class TestGraphStats:
    def test_complete_graph(self):
        s = graph_stats(complete(4))
        assert s.l1 == 0 and s.cyclomatic == 3

    def test_path(self):
        s = graph_stats(path(5))
        assert s.leaf_set == {0, 4} and s.l1 == 2 and s.cyclomatic == 0

    def test_bowtie(self):
        s = graph_stats(bowtie())
        assert s.l1 == 0 and s.cyclomatic == 2

    def test_cycle(self):
        s = graph_stats(cycle(9))
        assert s.l1 == 0 and s.cyclomatic == 1

    def test_star(self):
        s = graph_stats(star(4))
        assert s.l1 == 4 and s.leaf_set == {1, 2, 3, 4}


# Random connected graphs drawn through seeded generation.
connected_graphs = st.builds(
    lambda n, extra, seed: random_connected_graph(
        n, min(n - 1 + extra, n * (n - 1) // 2), seed),
    st.integers(2, 9), st.integers(0, 12), st.integers(0, 10**6),
)
cacti = st.builds(
    lambda cycles, pendants, seed: random_cactus(CactusSpec(cycles, (3, 6), pendants, seed)),
    st.integers(1, 4), st.integers(0, 4), st.integers(0, 10**6),
)


def unread_copy(g):
    """A graph equal to g, built afresh, whose edges have not been read."""
    h = build_graph(g.n, g.edges)
    assert h._edges is None
    return h


@given(connected_graphs | cacti)
@settings(max_examples=60)
def test_equality_hashing_and_copies_read_no_edges(g):
    read = unread_copy(g)
    assert read.edges == g.edges
    h = unread_copy(g)
    copies = [pickle.loads(pickle.dumps(h, protocol=p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(h), copy.deepcopy(h)]
    for other in (h, *copies):
        assert other == read and read == other and hash(other) == hash(read)
        assert other._edges is None
    assert all(other.edges == read.edges for other in copies)


@given(connected_graphs)
@settings(max_examples=60)
def test_distances_match_networkx(g):
    # The reference's rows come from networkx.all_pairs_shortest_path_length,
    # an edge's entry being the smaller of its endpoints'; decoding the codes
    # of a search from every vertex pins the edge rule X & ~(X << k).
    assert element_rows(g) == _element_rows(g)


@given(connected_graphs, st.data())
@settings(max_examples=60)
def test_codes_from_some_sources_match_networkx(g, data):
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    rows = _element_rows(g)
    assert decode(element_codes(g, sources), len(sources)) == [
        tuple(row[s] for s in sources) for row in rows]


@given(connected_graphs, st.data())
@settings(max_examples=60)
def test_each_level_gives_exact_prefixes(g, data):
    # After level L every vertex code, and so every edge code, holds
    # fields 0..L of its whole code.  After a cut at level C the vertex
    # codes hold fields C..L, shifted down by C fields, and the edge codes
    # their fields C + 1..L above the overlap field C, which is not an edge
    # field.  Each level also counts the vertices it reached: those whose
    # field at that level is nonzero.  The levels end at the last one that
    # reaches a vertex, and one more yield with 0 reached gives the codes
    # as they stand.
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    k = len(sources)
    whole = element_codes(g, sources)
    search = _element_codes(g, sources)
    codes, reached = next(search)
    level = base = drop = 0
    while reached:
        held = (level + 1 - base) * k
        assert codes == [code >> base * k & (1 << held) - 1 for code in whole[:g.n]]
        assert [code >> drop for code in _edge_codes(g.edges, codes, k)] == [
            code >> (base * k + drop) & (1 << held - drop) - 1 for code in whole[g.n:]]
        assert reached == sum(1 for code in whole[:g.n] if code >> level * k & (1 << k) - 1)
        cut = data.draw(st.booleans())
        if cut:
            base, drop = level, k
        codes, reached = search.send(cut)
        level += 1
    assert codes == [code >> base * k for code in whole[:g.n]]
    with pytest.raises(StopIteration):
        next(search)
    top = max(whole)
    assert top >> (level - 1) * k and not top >> level * k


@given(connected_graphs)
@settings(max_examples=60)
def test_distance_matrix_basics(g):
    d = distances(g)
    for u in range(g.n):
        for v in range(g.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 0) == (u == v)


@given(connected_graphs)
@settings(max_examples=40)
def test_triangle_inequality(g):
    d = distances(g)
    for u in range(g.n):
        for v in range(g.n):
            for w in range(g.n):
                assert d[u][w] <= d[u][v] + d[v][w]


@given(connected_graphs)
@settings(max_examples=40)
def test_edges_change_distance_by_at_most_one(g):
    d = distances(g)
    for u, v in g.edges:
        assert all(abs(a - b) <= 1 for a, b in zip(d[u], d[v]))


@given(connected_graphs)
@settings(max_examples=40)
def test_element_distance_matches_endpoint_minimum(g):
    rows = element_rows(g)
    for i, (u, v) in enumerate(g.edges):
        assert rows[g.n + i] == tuple(map(min, rows[u], rows[v]))


@given(st.integers(2, 10), st.integers(0, 10**6))
@settings(max_examples=30)
def test_trees_have_n_minus_one_edges(n, seed):
    g = random_connected_graph(n, n - 1, seed)
    assert graph_stats(g).cyclomatic == 0 and g.m == g.n - 1


@given(connected_graphs | cacti, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_edges_are_the_sorted_canonical_input(g, rnd):
    pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
    rnd.shuffle(pairs)
    h = build_graph(g.n, pairs)
    # m is known before the edges are first read, and they are kept after it.
    assert h._edges is None and h.m == len(pairs)
    assert h.edges == tuple(sorted((min(p), max(p)) for p in pairs))
    assert h._edges is h.edges
