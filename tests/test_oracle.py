"""Definition-level verification and exhaustive search."""

import itertools
import random
import tracemalloc
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    EmptySetError,
    GraphClassTag,
    InvariantError,
    TooLargeError,
    brute_force_mdim,
    build_graph,
    build_min_generator,
    decompose,
    graph_stats,
    is_mixed_generator,
    mdim_exact,
    oracle,
    random_cactus,
    random_connected_graph,
)

from graphs import bowtie, complete, cycle, path, star, tadpole, theta
from reference import _element_rows, reference_brute_force_mdim, reference_is_mixed_generator


class TestIsMixedGenerator:
    def test_path_endpoints_distinguish_everything(self):
        ok, pair = is_mixed_generator(path(3), {0, 2})
        assert ok and pair is None

    def test_path_center_fails_with_first_pair(self):
        # Profiles against {1}: v0 -> (1), v1 -> (0), v2 -> (1),
        # e01 -> (0), e12 -> (0).  Scanning vertices before edges, the
        # first clash is the endpoint pair (0, 2).
        ok, pair = is_mixed_generator(path(3), {1})
        assert not ok
        assert pair == (0, 2)

    def test_square_three_vertices_suffice(self):
        # All eight profiles against (0, 1, 2), frozen by hand.
        expected = {
            0: (0, 1, 2), 1: (1, 0, 1), 2: (2, 1, 0), 3: (1, 2, 1),
            (0, 1): (0, 0, 1), (0, 3): (0, 1, 1),
            (1, 2): (1, 0, 0), (2, 3): (1, 1, 0),
        }
        rows = _element_rows(cycle(4))
        table = {elem: tuple(row[s] for s in (0, 1, 2))
                 for elem, row in zip((*range(4), *cycle(4).edges), rows)}
        assert table == expected
        ok, pair = is_mixed_generator(cycle(4), {0, 1, 2})
        assert ok and pair is None

    def test_failing_pair_prefers_vertices_over_edges(self):
        # On C6 against {0, 3}: vertices 1 and 5 clash at (1, 2) before
        # any edge pair does.
        ok, pair = is_mixed_generator(cycle(6), {0, 3})
        assert not ok and pair == (1, 5)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            is_mixed_generator(path(3), set())


class TestForcedVertices:
    """The leaf set, which brute_force_mdim forces into every witness."""

    def test_star_forces_all_leaves(self):
        assert graph_stats(star(4)).leaf_set == {1, 2, 3, 4}

    def test_leafless_graph_forces_nothing(self):
        assert graph_stats(cycle(6)).leaf_set == frozenset()

    def test_tadpole_forces_the_tail_leaf(self):
        assert graph_stats(tadpole()).leaf_set == {5}


class TestBruteForce:
    def test_five_ring(self):
        result = brute_force_mdim(cycle(5))
        assert result.value == 3
        # {0, 1, 2} fails: the edge (2, 3) shadows vertex 2.  The next
        # candidate in lexicographic order works.
        ok, _ = is_mixed_generator(cycle(5), {0, 1, 2})
        assert not ok
        assert result.witness == (0, 1, 3)

    def test_complete_graph_needs_every_vertex(self):
        assert brute_force_mdim(complete(4)).value == 4

    def test_star_needs_exactly_its_leaves(self):
        result = brute_force_mdim(star(4))
        assert result.value == 4 and result.witness == (1, 2, 3, 4)

    def test_forced_vertices_inside_witness(self):
        g = tadpole()
        result = brute_force_mdim(g)
        assert graph_stats(g).leaf_set <= set(result.witness)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            brute_force_mdim(path(6), max_n=5)

    def test_search_budget(self, monkeypatch):
        import itertools

        import mixedmetric.oracle as oracle_mod

        counters = []

        def counting(start):
            counters.append(itertools.count(start))
            return counters[-1]

        monkeypatch.setattr(oracle_mod, "count", counting)
        g = complete(5)
        assert brute_force_mdim(g).value == 5
        visited = sum(next(c) - 1 for c in counters)
        # The budget bounds the nodes of all sizes together: a budget per
        # size would let one node fewer than the total through.
        monkeypatch.setattr(oracle_mod, "_MAX_NODES", visited)
        assert brute_force_mdim(g).value == 5
        monkeypatch.setattr(oracle_mod, "_MAX_NODES", visited - 1)
        with pytest.raises(TooLargeError, match=f"budget of {visited - 1} nodes"):
            brute_force_mdim(g)

    def test_more_vertices_than_a_machine_word(self):
        # Constraint masks are Python ints, so bits past 63 work.
        assert brute_force_mdim(path(70), max_n=70).witness == (0, 69)
        g = cycle(70)
        result = brute_force_mdim(g, max_n=70)
        assert result.value == 3
        assert is_mixed_generator(g, result.witness) == (True, None)

    @pytest.mark.parametrize("g", [cycle(5), tadpole(), star(3), bowtie()])
    def test_no_smaller_set_works(self, g):
        # Full powerset re-check at value - 1, leaves included or not.
        value = brute_force_mdim(g).value
        for sub in combinations(range(g.n), value - 1):
            ok, _ = is_mixed_generator(g, sub)
            assert not ok


small_graphs = st.builds(
    lambda n, extra, seed: random_connected_graph(
        n, min(n - 1 + extra, n * (n - 1) // 2), seed),
    st.integers(2, 8), st.integers(0, 10), st.integers(0, 10**6),
)


@given(small_graphs)
@settings(max_examples=40, deadline=None)
def test_full_vertex_set_always_generates(g):
    ok, pair = is_mixed_generator(g, range(g.n))
    assert ok, pair


@given(small_graphs, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_supersets_of_generators_generate(g, seed):
    import random

    result = brute_force_mdim(g)
    rng = random.Random(seed)
    others = [v for v in range(g.n) if v not in result.witness]
    extra = rng.sample(others, min(len(others), 2))
    ok, _ = is_mixed_generator(g, set(result.witness) | set(extra))
    assert ok


@given(small_graphs)
@settings(max_examples=30, deadline=None)
def test_witness_verifies_and_is_minimal_in_search_order(g):
    result = brute_force_mdim(g)
    ok, _ = is_mixed_generator(g, result.witness)
    assert ok and len(result.witness) == result.value


# Connected graphs and cacti with n <= 12: a cactus of at most two cycles
# of length <= 5 and three pendant edges has at most 1 + 2 * 4 + 3 vertices.
small_cacti = st.builds(
    lambda cycles, extra, seed: random_cactus(CactusSpec(cycles, (3, 5), extra, seed)),
    st.integers(1, 2), st.integers(0, 3), st.integers(0, 10**6),
)
graphs_up_to_12 = st.one_of(
    small_cacti,
    st.builds(lambda n, extra, seed: random_connected_graph(
        n, min(n - 1 + extra, n * (n - 1) // 2), seed),
        st.integers(2, 12), st.integers(0, 20), st.integers(0, 10**6)),
)


@pytest.mark.parametrize("budget", [8, 64, oracle._WINDOW])
@given(g=graphs_up_to_12, seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_verdict_and_pair_match_the_reference(budget, g, seed):
    # A window budget of 8 bits holds two fields once |S| >= 3, so most of
    # these searches cut before they end; 64 bits cuts the larger sets, and
    # every budget cuts after a check that leaves elements live.  Per graph:
    # a generator (a cactus's certificate, else the exact search's witness),
    # that set without one member, which mostly fails, and a random set.
    rng = random.Random(seed)
    if decompose(g).cycles is not None:
        base = list(build_min_generator(g).vertices)
    else:
        base = list(brute_force_mdim(g).witness)
    dropped = base[:]
    del dropped[rng.randrange(len(dropped))]
    sets = [base, dropped, rng.sample(range(g.n), rng.randint(1, g.n))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_WINDOW", budget)
        got = [is_mixed_generator(g, members) if members else None for members in sets]
    assert got == [reference_is_mixed_generator(g, members) if members else None
                   for members in sets]
    assert got[0] == (True, None)


# Connected graphs and cacti with n <= 10: a cactus of at most two cycles
# of length <= 4 and three pendant edges has at most 1 + 2 * 3 + 3 vertices.
graphs_up_to_10 = st.one_of(
    st.builds(lambda cycles, extra, seed: random_cactus(CactusSpec(cycles, (3, 4), extra, seed)),
              st.integers(1, 2), st.integers(0, 3), st.integers(0, 10**6)),
    st.builds(lambda n, extra, seed: random_connected_graph(
        n, min(n - 1 + extra, n * (n - 1) // 2), seed),
        st.integers(2, 10), st.integers(0, 20), st.integers(0, 10**6)),
)


@given(g=graphs_up_to_10)
@settings(max_examples=120, deadline=None)
def test_search_matches_the_enumeration(g):
    assert brute_force_mdim(g) == reference_brute_force_mdim(g)


def test_certifies_a_three_hundred_cycle_cactus():
    g = random_cactus(CactusSpec(300, (3, 8), 300, 1))
    assert 1500 < g.n < 2000
    cert = build_min_generator(g)
    assert cert.verified is True
    # A minimum generator has no spare member.
    ok, pair = is_mixed_generator(g, cert.vertices[1:])
    assert ok is False and pair is not None


# brute_force_mdim's value, witness, final mask count and search nodes on
# seeded density-0.4 graphs: the search shares the verifier's BFS, and a
# change there must not move the campaign's search.  The masks are the
# seeds' minimal ones plus those of every refuted set, in one list that the
# searches of all sizes share.
@pytest.mark.parametrize("n, m, seed, value, witness, masks, nodes", [
    (14, 36, 1, 7, (0, 2, 3, 4, 8, 9, 10), 37, 44),
    (14, 36, 2, 7, (0, 1, 4, 7, 8, 9, 10), 33, 61),
    (16, 48, 3, 8, (0, 1, 2, 6, 8, 13, 14, 15), 44, 74),
    (20, 76, 2, 10, (1, 2, 3, 4, 6, 7, 8, 10, 11, 17), 113, 885),
])
def test_search_work_is_pinned(monkeypatch, n, m, seed, value, witness, masks, nodes):
    counters, shared = [], []
    real = oracle._first_hitting_set

    def counting(start):
        counters.append(itertools.count(start))
        return counters[-1]

    def recording(candidates, masks, *args):
        shared.append(masks)
        return real(candidates, masks, *args)

    monkeypatch.setattr(oracle, "count", counting)
    monkeypatch.setattr(oracle, "_first_hitting_set", recording)
    result = brute_force_mdim(random_connected_graph(n, m, seed), max_n=20)
    assert (result.value, result.witness) == (value, witness)
    assert len(shared) == value and all(masks is shared[0] for masks in shared)
    assert len(shared[0]) == masks
    assert sum(next(c) - 1 for c in counters) == nodes


def test_a_refutation_deep_in_one_branch_cuts_a_later_sibling():
    # Masks {0, 1} and {2, 3}.  The first leaf, {0, 2}, is refuted with the
    # mask {1}, which no set through 0 can hit: the frame of {0} takes it up
    # and skips its sibling {0, 3}, and the root goes on to {1, 2}, which
    # the stub accepts.  Without the frames taking the mask up, {0, 3}
    # would be refuted too.
    refuted = []

    def refute(taken):
        refuted.append(taken)
        return [0b0010] if taken == 0b0101 else []

    masks = [0b0011, 0b1100]
    nodes = itertools.count(1)
    assert oracle._first_hitting_set([0, 1, 2, 3], masks, 2, nodes, refute) == (1, 2)
    assert refuted == [0b0101, 0b0110]
    assert masks == [0b0011, 0b1100, 0b0010]
    # The root, {0}, {0, 1} (which misses {2, 3} with no pick left),
    # {0, 2}, {1} and {1, 2}.
    assert next(nodes) == 7


@pytest.mark.parametrize("extra", [(), (0, 1)])
def test_an_accepted_set_of_another_size_raises(monkeypatch, extra):
    # C5 has no leaves, so its size-3 search must accept 3 members; this
    # stub refutes every smaller size and then accepts `extra`.
    monkeypatch.setattr(oracle, "_first_hitting_set",
                        lambda candidates, masks, need, nodes, refute: extra if need == 3 else None)
    with pytest.raises(InvariantError, match=f"the size-3 search accepted {len(extra)}"):
        brute_force_mdim(cycle(5))


def test_every_connected_atlas_graph():
    # All 995 connected graphs on 2..7 vertices.  The oracle equals the
    # enumeration, the formula equals the oracle on the 102 cacti, and the
    # bound l1 + 2c holds on every graph but C_n.  It is tight on four
    # non-cacti, the thetas with r - p <= 1: θ(1, 2, 2), θ(2, 2, 2),
    # θ(2, 2, 3) and θ(2, 3, 3).
    graphs = [build_graph(h.number_of_nodes(), list(h.edges())) for h in nx.graph_atlas_g()
              if h.number_of_nodes() >= 2 and nx.is_connected(h)]
    assert len(graphs) == 995
    tight, cacti = [], 0
    for g in graphs:
        result = brute_force_mdim(g)
        assert result == reference_brute_force_mdim(g), g.edges
        d = decompose(g)
        if d.cycles is not None:
            cacti += 1
            assert mdim_exact(g).total == result.value, g.edges
        if d.graph_class.tag is not GraphClassTag.CYCLE:
            bound = d.stats.l1 + 2 * d.stats.cyclomatic
            assert result.value <= bound, g.edges
            if d.cycles is None and result.value == bound:
                tight.append(g.edges)
    assert cacti == 102
    assert tight == [
        ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)),
        ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)),
        ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (3, 4), (3, 5)),
        ((0, 1), (0, 5), (0, 6), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5)),
    ]


def test_theta_graphs_have_dimension_four_exactly_when_their_paths_are_near_equal():
    # θ(p, q, r) with 1 <= p <= q <= r <= 12 and q >= 2: 352 graphs, up to
    # n = 35, whose searches refute many sets.  It also guards the search's
    # cost: these take 6.4e4 nodes in all, 1.6e3 at most, where a search that
    # restarted after each refutation took 9.1e5, and 1.4e5 on one theta.
    shapes = [(p, q, r) for r in range(2, 13) for q in range(2, r + 1) for p in range(1, q + 1)]
    assert len(shapes) == 352
    for p, q, r in shapes:
        g = theta(p, q, r)
        assert brute_force_mdim(g, max_n=g.n).value == (4 if r - p <= 1 else 3), (p, q, r)


_element_codes = oracle._element_codes


def levels_drawn(monkeypatch):
    """Record, per search, how many levels reaching a vertex is_mixed_generator draws."""
    drawn = []

    def counting(g, sources):
        drawn.append(0)
        search = _element_codes(g, sources)
        codes, reached = next(search)
        while True:
            drawn[-1] += reached > 0
            cut = yield codes, reached
            try:
                codes, reached = search.send(cut)
            except StopIteration:
                return

    monkeypatch.setattr(oracle, "_element_codes", counting)
    return drawn


def all_levels(g, sources):
    return sum(1 for _, reached in _element_codes(g, sources) if reached)


@pytest.mark.parametrize("budget", [8, 64, oracle._WINDOW])
@pytest.mark.parametrize("cycles, seed", [(20, 1), (30, 2), (45, 3)])
def test_early_stop_matches_the_reference_on_cacti(monkeypatch, budget, cycles, seed):
    # n in the 100s, where a certificate's codes tell every element apart
    # levels before the BFS ends.  Dropping a member makes the set fail,
    # so that search runs every level and names the reference's pair.
    g = random_cactus(CactusSpec(cycles, (3, 8), cycles, seed))
    assert 100 < g.n < 300
    cert = build_min_generator(g).vertices
    monkeypatch.setattr(oracle, "_WINDOW", budget)
    for members in [cert] + [cert[:i] + cert[i + 1:] for i in range(0, len(cert), 11)]:
        assert is_mixed_generator(g, members) == reference_is_mixed_generator(g, members)


def test_a_certificate_stops_at_its_first_separating_level(monkeypatch):
    # The certificate's cut codes first tell every element apart at level
    # 6 of 23.  The check there is the first the pace allows (the vertices
    # reached by then first number twice the 387 elements), so the search
    # draws levels 0..6; checks at levels 1, 2, 4, 8, ... drew up to level 8.
    g = random_cactus(CactusSpec(30, (3, 8), 30, 2))
    cert = build_min_generator(g).vertices
    drawn = levels_drawn(monkeypatch)
    assert is_mixed_generator(g, cert) == (True, None)
    assert drawn == [7]
    assert all_levels(g, sorted(cert)) == 24
    # A set that fails still runs every level.
    drawn.clear()
    assert is_mixed_generator(g, cert[1:])[0] is False
    assert drawn == [all_levels(g, sorted(cert[1:]))]


@pytest.mark.parametrize("n", [10, 12])
def test_path_leaves_separate_only_at_the_search_end(monkeypatch, n):
    # Vertex 0 and edge (0, 1) agree on leaf 0 and differ on leaf n - 1
    # only at level n - 2, one short of the last level n - 1.  Each level
    # reaches two vertices, never twice the 2n - 1 live elements, so only
    # the check at the search's end passes the set.
    g = path(n)
    drawn = levels_drawn(monkeypatch)
    assert is_mixed_generator(g, {0, n - 1}) == (True, None)
    assert drawn == [n]
    assert all_levels(g, [0, n - 1]) == n
    assert reference_is_mixed_generator(g, {0, n - 1}) == (True, None)


def test_a_long_path_verifies_in_bounded_memory():
    # The leaves tell the elements apart only at the last of 20000 levels.
    # The codes hold the fields since the last check only, so memory does
    # not grow with the levels: codes holding every field peaked at 157 MB.
    g = path(20000)
    tracemalloc.start()
    try:
        assert is_mixed_generator(g, {0, 19999}) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_early_check_keys_every_element_with_earlier_labels(monkeypatch):
    # On C4 against {1, 2}, vertex 1 and edge (0, 1) share the profile
    # (0, 1), vertex 2 and edge (2, 3) the profile (1, 0), and every other
    # element is alone by level 1.  A 4-bit window holds two fields, so
    # the search checks at level 1 and cuts its codes; level 2 tells none
    # of the four apart.  Only the labels carried across the cut, packed
    # into the vertices' keys and the edges' alike, keep the two pairs in
    # two classes.  The overlap field left by the cut is an edge field for
    # no edge: keying it would tell vertex 1 from edge (0, 1) and pass the set.
    monkeypatch.setattr(oracle, "_WINDOW", 4)
    expected = reference_is_mixed_generator(cycle(4), {1, 2})
    assert expected == (False, (1, (0, 1)))
    assert is_mixed_generator(cycle(4), {1, 2}) == expected


def test_a_check_at_the_last_level_ends_the_search(monkeypatch):
    # The 12-vertex path against {0, 10} fails on vertex 10 ~ edge (10, 11).
    # At the default window its one check comes at the search's end.  An
    # 8-bit window holds four fields at |S| = 2, so the search checks at
    # levels 3, 7 and 11, the last that reaches a vertex; the spent level
    # after it holds no new field, so no fourth check keys the two live
    # elements again.
    calls = []
    real = oracle._keys
    monkeypatch.setattr(oracle, "_keys", lambda *args: calls.append(args[2:4]) or real(*args))
    expected = (False, (10, (10, 11)))
    assert is_mixed_generator(path(12), {0, 10}) == expected
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(oracle, "_WINDOW", 8)
    assert is_mixed_generator(path(12), {0, 10}) == expected
    assert [len(vertices) + len(edges) for vertices, edges in calls] == [23, 23, 10]
