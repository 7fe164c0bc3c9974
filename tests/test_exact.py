"""Structural formula, generator construction, and bound reports."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    CycleExcludedError,
    GraphClassTag,
    InvariantError,
    NotACactusError,
    bound_report,
    brute_force_mdim,
    build_graph,
    build_min_generator,
    classify,
    decompose,
    graph_stats,
    mdim_exact,
    random_cactus,
    random_connected_graph,
)

from graphs import bowtie, complete, cycle, cycle_with_pendants, path, star, tadpole


class TestMdimExact:
    def test_path_counts_its_endpoints(self):
        report = mdim_exact(path(5))
        assert report.total == 2 and report.l1 == 2
        assert report.per_cycle == () and report.delta == 0

    def test_single_edge(self):
        assert mdim_exact(path(2)).total == 2

    def test_star(self):
        assert mdim_exact(star(4)).total == 4

    def test_bowtie_terms(self):
        report = mdim_exact(bowtie())
        assert report.l1 == 0
        assert [t.max_term for t in report.per_cycle] == [2, 2]
        assert report.delta == 0 and report.total == 4

    def test_clustered_pendants_cost_one_extra(self):
        # Roots 0, 1, 2 on an 8-ring cut arcs 1, 1, 6: no geodesic triple.
        g = cycle_with_pendants(8, [0, 1, 2])
        report = mdim_exact(g)
        assert report.l1 == 3
        (term,) = report.per_cycle
        assert term.rt == 3 and term.max_term == 0 and term.needs_delta
        assert report.delta == 1 and report.total == 4
        assert brute_force_mdim(g).value == 4

    def test_spread_pendants_cost_nothing_extra(self):
        g = cycle_with_pendants(8, [0, 3, 6])
        report = mdim_exact(g)
        assert report.delta == 0 and report.total == 3
        assert brute_force_mdim(g).value == 3

    def test_pure_rings(self):
        for n in (3, 5, 7):
            report = mdim_exact(cycle(n))
            assert report.total == 3 and report.per_cycle[0].rt == 0

    def test_general_graphs_rejected(self):
        with pytest.raises(NotACactusError):
            mdim_exact(complete(4))

    def test_four_roots_with_triple_cost_nothing(self):
        g = cycle_with_pendants(4, [0, 1, 2, 3])
        report = mdim_exact(g)
        assert report.total == 4 == report.l1
        assert brute_force_mdim(g).value == 4


class TestDeltaCount:
    def test_clustered_roots(self):
        assert mdim_exact(cycle_with_pendants(8, [0, 1, 2])).delta == 1

    def test_spread_roots(self):
        assert mdim_exact(cycle_with_pendants(8, [0, 3, 6])).delta == 0

    def test_too_few_roots_never_count(self):
        assert mdim_exact(bowtie()).delta == 0


class TestBuildMinGenerator:
    def test_path_takes_both_leaves(self):
        cert = build_min_generator(path(4))
        assert cert.vertices == (0, 3) and cert.sa == (0, 3)
        assert cert.sb == () and cert.sc == () and cert.verified

    def test_six_ring_takes_lexicographic_triple(self):
        # Smallest 3-subset of ring positions with a geodesic triple:
        # (0, 1, 2) fails (arcs 1, 1, 4), (0, 1, 3) works (arcs 1, 2, 3).
        cert = build_min_generator(cycle(6))
        assert cert.vertices == (0, 1, 3)
        assert cert.verified

    def test_bowtie_takes_the_degree_two_vertices(self):
        cert = build_min_generator(bowtie())
        assert cert.vertices == (1, 2, 3, 4)
        assert cert.sb == ((1, 2), (3, 4)) and cert.verified

    def test_delta_cycle_gets_one_extra_ring_vertex(self):
        cert = build_min_generator(cycle_with_pendants(8, [0, 1, 2]))
        assert cert.sa == (8, 9, 10)
        assert cert.sb == ((),) and cert.sc == ((4,),)
        assert cert.verified

    def test_roles_are_disjoint_and_exhaustive(self):
        cert = build_min_generator(cycle_with_pendants(8, [0, 1, 2]))
        flat = list(cert.sa) + [v for p in cert.sb for v in p] + [v for p in cert.sc for v in p]
        assert sorted(flat) == list(cert.vertices)
        assert len(set(flat)) == len(flat)

    def test_construction_mismatch_raises(self, monkeypatch):
        import mixedmetric.exact as exact_mod

        # A made-up ring position too many for the bowtie's first cycle.
        real = exact_mod.augment_for_triple
        monkeypatch.setattr(exact_mod, "augment_for_triple",
                            lambda *a, **k: real(*a, **k) | {-1})
        with pytest.raises(InvariantError, match="formula term is 2"):
            build_min_generator(bowtie())


class TestBoundReport:
    def test_bowtie_attains_two_per_cycle(self):
        report = bound_report(bowtie())
        assert report.bound == 4 and report.attained

    def test_tadpole_attains_leaves_plus_two(self):
        report = bound_report(tadpole())
        assert report.bound == 3 and report.attained

    def test_spread_pendants_fall_short(self):
        report = bound_report(cycle_with_pendants(8, [0, 3, 6]))
        assert report.bound == 5 and not report.attained

    def test_tree_bound_is_its_dimension(self):
        report = bound_report(path(5))
        assert report.bound == 2 and report.attained

    def test_bare_ring_excluded(self):
        with pytest.raises(CycleExcludedError):
            bound_report(cycle(5))

    def test_general_graph_rejected(self):
        with pytest.raises(NotACactusError):
            bound_report(complete(4))


random_cacti = st.builds(
    lambda cycles, lo, spread, pendants, seed: random_cactus(
        CactusSpec(cycles, (lo, lo + spread),
                   pendants if cycles else pendants + 1, seed)),
    st.integers(0, 3), st.integers(3, 5), st.integers(0, 2),
    st.integers(0, 3), st.integers(0, 10**6),
)


@given(random_cacti)
@settings(max_examples=40, deadline=None)
def test_formula_matches_oracle(g):
    if g.n > 14:
        return
    assert mdim_exact(g).total == brute_force_mdim(g).value


def test_formula_matches_oracle_past_sixteen_vertices():
    # 40 seeded cacti with 17 <= n <= 24, beyond the oracle's default cap.
    rng = random.Random(24)
    checked = 0
    while checked < 40:
        g = random_cactus(CactusSpec(rng.randint(2, 5), (3, 7), rng.randint(0, 6),
                                     rng.randrange(10**9)))
        if 17 <= g.n <= 24:
            assert mdim_exact(g).total == brute_force_mdim(g, max_n=24).value, g.edges
            checked += 1


@given(random_cacti)
@settings(max_examples=40, deadline=None)
def test_certificates_verify_at_formula_cardinality(g):
    report = mdim_exact(g)
    cert = build_min_generator(g)
    assert cert.verified
    assert len(cert.vertices) == report.total


@given(random_cacti)
@settings(max_examples=60, deadline=None)
def test_total_between_leaf_count_and_bound(g):
    report = mdim_exact(g)
    stats = graph_stats(g)
    cycles = decompose(g).cycles
    assert report.total >= stats.l1
    # The bound statement excludes the bare ring C_n (whose total is 3 > 2).
    if cycles and classify(g).tag is not GraphClassTag.CYCLE:
        assert report.total <= stats.l1 + 2 * len(cycles)
    if not stats.l1 and len(cycles) >= 2:
        assert report.total <= 2 * len(cycles)
        for term in report.per_cycle:
            assert term.max_term + term.needs_delta in (1, 2)


@given(st.integers(2, 10), st.integers(0, 10**6))
@settings(max_examples=30)
def test_trees_need_exactly_their_leaves(n, seed):
    g = random_connected_graph(n, n - 1, seed)
    assert mdim_exact(g).total == graph_stats(g).l1


def test_leafless_chain_attains_two_per_cycle():
    # Two squares joined by a bridge: each ring keeps one attachment root.
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                        (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)])
    report = mdim_exact(g)
    assert report.total == 4 == bound_report(g).bound
    assert bound_report(g).attained
