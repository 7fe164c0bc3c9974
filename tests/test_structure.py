"""Cactus recognition, the block decomposition, rings, and geodesic triples."""

import copy
import gc
import pickle
import weakref
from collections import deque
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    CampaignConfig,
    CampaignSummary,
    GraphClass,
    GraphClassTag,
    InvariantError,
    augment_for_triple,
    biconnected_blocks,
    bound_report,
    brute_force_mdim,
    build_graph,
    build_min_generator,
    classify,
    conjecture,
    decompose,
    evaluate_conjecture,
    has_geodesic_triple,
    is_mixed_generator,
    mdim_exact,
    random_cactus,
    random_connected_graph,
    structure,
)

from graphs import bowtie, complete, cycle, path, tadpole
from reference import reference_augment_for_triple


# --- independent test oracles -------------------------------------------

def edge(u, v):
    return (u, v) if u < v else (v, u)


def ring_distance(length, i, j):
    return min(abs(i - j), length - abs(i - j))


def triple_by_distance_sum(length, marked):
    """Literal definition: pairwise ring distances of some triple sum to L."""
    return any(
        ring_distance(length, a, b) + ring_distance(length, b, c)
        + ring_distance(length, c, a) == length
        for a, b, c in combinations(sorted(marked), 3)
    )


def oriented(cycle):
    """A cycle's vertex list in the documented ring orientation.

    Both directions start at the lowest vertex; the smaller tuple is the
    one that turns toward the smaller neighbour.
    """
    k = cycle.index(min(cycle))
    forward = tuple(cycle[k:] + cycle[:k])
    return min(forward, forward[:1] + forward[:0:-1])


def check_block_shape(block):
    """What the rings read off a block of two or more edges.

    With distinct tails each edge's head is the next edge's tail, cyclically,
    so the block is a cycle walked in order.  A block that repeats a tail
    has more edges than vertices.
    """
    if len(block) == 1:
        return
    tails = [tail for tail, _ in block]
    if len(set(tails)) == len(block):
        assert [head for _, head in block] == tails[1:] + tails[:1]
    else:
        assert len(block) > len({v for e in block for v in e})


def small_mark_sets():
    """Every set of marked positions on every ring of length 3 to 12."""
    for length in range(3, 13):
        for mask in range(1 << length):
            yield length, [p for p in range(length) if mask >> p & 1]


def minimal_augment_brute(length, marked):
    """Reference enumeration: smallest lexicographic addition, sizes 1..3."""
    base = set(marked)
    allowed = [p for p in range(length) if p not in base]
    for size in (1, 2, 3):
        for extra in combinations(allowed, size):
            if triple_by_distance_sum(length, base | set(extra)):
                return set(extra)
    return None


def components_without_ring_edges(g, ring):
    """Connected components of the graph after deleting the ring's edges."""
    skip = {edge(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))}
    comp = [-1] * g.n
    label = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = label
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if comp[w] < 0 and edge(v, w) not in skip:
                    comp[w] = label
                    queue.append(w)
        label += 1
    return comp


random_cacti = st.builds(
    lambda cycles, lo, spread, pendants, seed: random_cactus(
        CactusSpec(cycles, (lo, lo + spread),
                   pendants if cycles else pendants + 1, seed)),
    st.integers(0, 3), st.integers(3, 6), st.integers(0, 2),
    st.integers(0, 4), st.integers(0, 10**6),
)


class TestClassify:
    def test_path_is_tree(self):
        info = classify(path(6))
        assert info.tag is GraphClassTag.TREE and info.cycle_count == 0

    def test_bowtie_is_cactus(self):
        info = classify(bowtie())
        assert info.tag is GraphClassTag.CACTUS and info.cycle_count == 2

    def test_complete_graph_is_general(self):
        assert classify(complete(4)).tag is GraphClassTag.GENERAL

    def test_pure_ring_is_cycle(self):
        info = classify(cycle(5))
        assert info.tag is GraphClassTag.CYCLE and info.cycle_count == 1

    def test_tadpole_is_unicyclic(self):
        assert classify(tadpole()).tag is GraphClassTag.UNICYCLIC

    def test_diamond_is_general(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert classify(g).tag is GraphClassTag.GENERAL

    def test_general_graph_counts_its_cycle_blocks(self):
        # K4 is a block that is not a cycle; the triangle (3, 4, 5) is one.
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (3, 4), (4, 5), (5, 3)])
        assert classify(g) == GraphClass(GraphClassTag.GENERAL, 1)
        assert decompose(g).cycles is None

    def test_tags_report_most_specific_class(self):
        # One triangle plus a bridge is unicyclic, not merely cactus.
        g = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        assert classify(g).tag is GraphClassTag.UNICYCLIC


@given(st.integers(2, 10), st.integers(0, 14), st.integers(0, 10**6))
@settings(max_examples=60)
def test_blocks_match_networkx(n, extra, seed):
    g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed)
    h = nx.Graph(list(g.edges))
    expected = {frozenset(edge(u, v) for u, v in comp)
                for comp in nx.biconnected_component_edges(h)}
    blocks = list(biconnected_blocks(g))
    assert {frozenset(edge(u, v) for u, v in b) for b in blocks} == expected
    for block in blocks:
        check_block_shape(block)


@pytest.mark.parametrize("n, edges, blocks", [
    (2, [(0, 1)], [[(0, 1)]]),
    # Leaf 0 on the triangle 1 2 3, which carries leaf 4 at vertex 3.
    (5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)], [[(3, 4)], [(1, 2), (2, 3), (3, 1)], [(0, 1)]]),
], ids=["edge", "tadpole"])
def test_blocks_when_the_root_is_a_leaf(n, edges, blocks):
    # The search starts at vertex 0, a leaf here, so its one tree edge
    # closes the last block.  Every other leaf's edge is a block of its
    # own, yielded as the search meets it.
    assert list(biconnected_blocks(build_graph(n, edges))) == blocks


class TestExtractCycles:
    """The rings and root positions decompose reads off the block search."""

    def test_pure_ring(self):
        (c,) = decompose(cycle(5)).cycles
        assert c.ring == (0, 1, 2, 3, 4) and c.rt == 0

    def test_bowtie_rings_and_roots(self):
        a, b = decompose(bowtie()).cycles
        assert a.ring == (0, 1, 2) and b.ring == (0, 3, 4)
        assert a.rt == b.rt == 1
        assert a.root_positions == b.root_positions == {0}

    def test_tadpole(self):
        (c,) = decompose(tadpole()).cycles
        assert len(c.ring) == 4 and c.rt == 1 and c.root_positions == {0}

    def test_ring_orientation_deterministic(self):
        # Scrambled labels: the ring starts at the least vertex and turns
        # toward its smaller ring neighbor.
        g = build_graph(4, [(3, 1), (1, 2), (2, 0), (0, 3)])
        (c,) = decompose(g).cycles
        assert c.ring == (0, 2, 1, 3)

    def test_tree_has_no_cycles(self):
        assert decompose(path(4)).cycles == ()

    def test_consecutive_ring_entries_adjacent(self):
        g = random_cactus(CactusSpec(3, (3, 7), 4, seed=99))
        edges = set(g.edges)
        for c in decompose(g).cycles:
            for i in range(len(c.ring)):
                assert edge(c.ring[i], c.ring[(i + 1) % len(c.ring)]) in edges

    @given(random_cacti, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_rings_match_networkx_cycle_basis(self, g, rnd):
        label = list(range(g.n))
        rnd.shuffle(label)
        g = build_graph(g.n, [(label[u], label[v]) for u, v in g.edges])
        h = nx.Graph(g.edges)
        cycles = decompose(g).cycles
        # A cactus's cycles are edge-disjoint, so any cycle basis is all of them.
        assert [c.ring for c in cycles] == sorted(oriented(c) for c in nx.cycle_basis(h))
        for c in cycles:
            assert c.root_positions == {i for i, v in enumerate(c.ring) if h.degree(v) >= 3}

    @given(random_cacti)
    @settings(max_examples=40, deadline=None)
    def test_root_positions_have_nontrivial_components(self, g):
        # Degree >= 3 on the ring must coincide with a nontrivial hanging part.
        for c in decompose(g).cycles:
            comp = components_without_ring_edges(g, c.ring)
            for pos, v in enumerate(c.ring):
                assert (pos in c.root_positions) == (comp.count(comp[v]) >= 2)


@pytest.mark.parametrize("call, graph", [
    (decompose, "cactus"), (classify, "cactus"), (classify, "general"),
    (mdim_exact, "cactus"), (bound_report, "cactus"), (build_min_generator, "cactus"),
    (evaluate_conjecture, "cactus"), (evaluate_conjecture, "general"),
], ids=lambda x: getattr(x, "__name__", x))
def test_each_public_call_finds_the_blocks_once(monkeypatch, call, graph):
    g = {"cactus": random_cactus(CactusSpec(3, (3, 6), 3, seed=7)),
         "general": complete(5)}[graph]
    # random_cactus classifies its graph, which keeps the blocks on it.
    g = build_graph(g.n, g.edges)
    calls = []
    real = structure.biconnected_blocks
    monkeypatch.setattr(structure, "biconnected_blocks", lambda g: calls.append(g) or real(g))
    call(g)
    assert len(calls) == 1


def test_public_calls_on_one_graph_share_one_decomposition(monkeypatch):
    g = random_cactus(CactusSpec(3, (3, 6), 3, seed=7))
    g = build_graph(g.n, g.edges)
    calls = []
    real = structure.biconnected_blocks
    monkeypatch.setattr(structure, "biconnected_blocks", lambda g: calls.append(g) or real(g))
    for call in (classify, decompose, mdim_exact, bound_report, build_min_generator,
                 evaluate_conjecture):
        call(g)
    assert len(calls) == 1


def test_a_decomposed_graph_is_freed_without_the_cyclic_gc():
    # Nothing a graph keeps may refer back to it, or every dropped graph
    # would wait for the cyclic GC and hold its memory until then.
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in (mdim_exact, bound_report, build_min_generator, evaluate_conjecture):
            call(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_decompose_returns_the_kept_result():
    for g in (tadpole(), complete(4)):
        assert decompose(g) is decompose(g)


# --- records ------------------------------------------------------------

def every_record():
    """One of each NamedTuple record the package returns, from real calls."""
    g = tadpole()
    d = decompose(g)
    report = mdim_exact(g)
    record = evaluate_conjecture(g)
    return {
        "GraphStats": d.stats,
        "GraphClass": d.graph_class,
        "CycleInfo": d.cycles[0],
        "Decomposition": d,
        "CycleTerm": report.per_cycle[0],
        "MdimReport": report,
        "GeneratorCertificate": build_min_generator(g),
        "BoundReport": bound_report(g),
        "SearchResult": brute_force_mdim(g),
        "FailingPair": is_mixed_generator(g, [5])[1],
        "CactusSpec": CactusSpec(3, (3, 8), 3, seed=1),
        "ConjectureRecord": record,
        "CampaignSummary": CampaignSummary(count=1, holds=1, excluded=0, min_gap=record.gap,
                                           violations=(record,)),
    }


RECORD_NAMES = sorted(every_record())


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_records_pickle_and_copy(name):
    record = every_record()[name]
    assert type(record).__name__ == name
    pickled = [pickle.loads(pickle.dumps(record, protocol=p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*pickled, copy.copy(record), copy.deepcopy(record)):
        assert type(other) is type(record)
        assert other == record and hash(other) == hash(record)
        assert repr(other) == repr(record)


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_record_fields_refuse_assignment(name):
    record = every_record()[name]
    for field in (*record._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == every_record()[name]


def test_records_compare_as_tuples_but_campaign_config_does_not():
    # The README's API notes: a record equals the tuple of its items.
    report = bound_report(tadpole())
    assert report == (report.bound, report.attained)
    bound, attained = report
    assert (bound, attained) == (report[0], report[1])
    config = CampaignConfig(count=1, output_path="c.jsonl")
    assert config != (1, "c.jsonl", 0, (4, 10), "density", 0.4, None, 16)


def test_cactus_spec_repr_is_unchanged():
    assert (repr(CactusSpec(3, (3, 8), 3, seed=1))
            == "CactusSpec(cycle_count=3, cycle_length_range=(3, 8), extra_tree_edges=3, seed=1)")


def test_random_cactus_names_its_spec_when_its_check_fails(monkeypatch):
    # random_cactus refuses a graph whose decomposition disagrees with the spec.
    tree = structure.Decomposition(GraphClass(GraphClassTag.TREE, 0), None, ())
    monkeypatch.setattr(conjecture, "decompose", lambda g: tree)
    with pytest.raises(InvariantError) as excinfo:
        random_cactus(CactusSpec(2, (3, 4), 1, seed=3))
    assert str(excinfo.value) == ("grew a Tree with 0 cycles from CactusSpec(cycle_count=2, "
                                  "cycle_length_range=(3, 4), extra_tree_edges=1, seed=3)")


class TestGeodesicTriple:
    def test_even_spread_is_a_triple(self):
        assert has_geodesic_triple(6, {0, 2, 4})

    def test_clustered_marks_are_not(self):
        assert not has_geodesic_triple(6, {0, 1, 2})
        assert not triple_by_distance_sum(6, {0, 1, 2})

    def test_triple_among_four_marks(self):
        assert has_geodesic_triple(8, {0, 1, 2, 4})
        assert triple_by_distance_sum(8, {0, 1, 2, 4})

    def test_fewer_than_three_marks(self):
        assert not has_geodesic_triple(9, set())
        assert not has_geodesic_triple(9, {1, 5})

    def test_out_of_range_marks_rejected(self):
        with pytest.raises(ValueError):
            has_geodesic_triple(5, {0, 5, 2})

    def test_gap_rule_matches_the_definition_on_every_small_ring(self):
        # All 8,184 mark sets on rings of length 3 to 12.
        for length, marked in small_mark_sets():
            assert has_geodesic_triple(length, marked) == triple_by_distance_sum(length, marked)

    @given(st.integers(3, 24), st.lists(st.integers(0, 23), max_size=12))
    @settings(max_examples=300)
    def test_matches_distance_sum_definition(self, length, raw):
        marked = {p % length for p in raw}
        assert has_geodesic_triple(length, marked) == triple_by_distance_sum(length, marked)

    @given(st.integers(3, 20), st.lists(st.integers(0, 19), max_size=8),
           st.integers(0, 19))
    @settings(max_examples=200)
    def test_monotone_under_new_marks(self, length, raw, extra):
        marked = {p % length for p in raw}
        if has_geodesic_triple(length, marked):
            assert has_geodesic_triple(length, marked | {extra % length})


class TestAugmentForTriple:
    def test_from_scratch_lexicographic(self):
        # Brute enumeration gives {0, 1, 3}: arcs 1, 2, 3 on a 6-ring.
        assert minimal_augment_brute(6, set()) == {0, 1, 3}
        assert augment_for_triple(6, set()) == {0, 1, 3}

    def test_single_completion_scan(self):
        assert minimal_augment_brute(8, {0, 1}) == {4}
        assert augment_for_triple(8, {0, 1}) == {4}

    def test_antipodal_pair_on_square(self):
        assert minimal_augment_brute(4, {0, 2}) == {1}
        assert augment_for_triple(4, {0, 2}) == {1}

    def test_already_satisfied_needs_nothing(self):
        assert augment_for_triple(6, {0, 2, 4}) == frozenset()

    def test_marks_without_a_triple_need_one_more(self):
        # The gap rule's corollary: of three or more marks, at most one gap
        # exceeds floor(L/2), and a mark at its middle closes it, so the
        # delta term adds one vertex per cycle.
        cases = [(length, marked) for length, marked in small_mark_sets()
                 if len(marked) >= 3 and not triple_by_distance_sum(length, marked)]
        assert len(cases) == 878
        for length, marked in cases:
            assert len(augment_for_triple(length, marked)) == 1

    def test_completion_size_is_the_formula_term(self):
        # The rule build_min_generator's one call per cycle relies on:
        # max(3 - rt, 0) positions, plus one when three or more marks hold
        # no triple, and never a marked position.
        for length, marked in small_mark_sets():
            added = augment_for_triple(length, marked)
            needs_delta = len(marked) >= 3 and not triple_by_distance_sum(length, marked)
            assert len(added) == max(3 - len(marked), 0) + needs_delta, (length, marked)
            assert not added & set(marked)

    def test_gap_built_completion_matches_the_combination_search(self):
        # All 8,184 mark sets on rings of length 3 to 12, including those
        # that already hold a triple.
        for length, marked in small_mark_sets():
            assert augment_for_triple(length, marked) == \
                reference_augment_for_triple(length, marked), (length, marked)

    @given(st.integers(3, 60), st.lists(st.integers(0, 59), max_size=6))
    @settings(max_examples=300)
    def test_matches_the_combination_search_on_longer_rings(self, length, raw):
        marked = {p % length for p in raw}
        assert augment_for_triple(length, marked) == reference_augment_for_triple(length, marked)

    def test_short_ring_rejected(self):
        with pytest.raises(ValueError):
            augment_for_triple(2, ())

    def test_mark_outside_the_ring_rejected(self):
        for marked in ({0, 1, 6}, {-1}, {6}):
            with pytest.raises(ValueError):
                augment_for_triple(6, marked)

    @given(st.integers(3, 14), st.lists(st.integers(0, 13), max_size=5))
    @settings(max_examples=200)
    def test_matches_brute_enumeration(self, length, raw):
        marked = {p % length for p in raw}
        if triple_by_distance_sum(length, marked):
            return
        added = augment_for_triple(length, marked)
        assert set(added) == minimal_augment_brute(length, marked)
        assert has_geodesic_triple(length, marked | added)


@given(random_cacti)
@settings(max_examples=40, deadline=None)
def test_blocks_partition_edges(g):
    blocks = list(biconnected_blocks(g))
    counted = sorted(edge(u, v) for b in blocks for u, v in b)
    assert counted == sorted(g.edges)
    for block in blocks:
        # A cactus has no block but edges and cycles.
        assert len({tail for tail, _ in block}) == len(block)
        check_block_shape(block)


@given(random_cacti)
@settings(max_examples=40, deadline=None)
def test_ring_arc_distance_equals_graph_distance(g):
    dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(g.edges)))
    for c in decompose(g).cycles:
        for i, j in combinations(range(len(c.ring)), 2):
            assert dist[c.ring[i]][c.ring[j]] == ring_distance(len(c.ring), i, j)


@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_multi_cycle_cacti_have_roots_everywhere(cycles, pendants, seed):
    g = random_cactus(CactusSpec(cycles, (3, 6), pendants, seed))
    for c in decompose(g).cycles:
        assert c.rt >= 1
