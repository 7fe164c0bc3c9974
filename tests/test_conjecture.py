"""Random generators, bound evaluation, and campaign files."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from mixedmetric import (
    CactusSpec,
    CampaignConfig,
    CampaignFileError,
    GraphClassTag,
    InfeasibleEdgeCountError,
    InvalidSpecError,
    TooLargeError,
    TooSmallError,
    classify,
    decompose,
    evaluate_conjecture,
    graph_stats,
    random_cactus,
    random_connected_graph,
    run_campaign,
)

from graphs import bowtie, complete, cycle, path, wheel
from reference import reference_random_connected_graph


class TestRandomTree:
    # A tree is a connected graph with m = n - 1, which samples no chords.

    def test_two_vertices_is_the_single_edge(self):
        assert random_connected_graph(2, 1, 5).edges == ((0, 1),)

    def test_edge_count(self):
        g = random_connected_graph(5, 4, 7)
        assert g.m == 4 and classify(g).tag is GraphClassTag.TREE

    def test_deterministic_in_seed(self):
        assert random_connected_graph(9, 8, 3).edges == random_connected_graph(9, 8, 3).edges

    def test_seeds_vary_the_tree(self):
        shapes = {random_connected_graph(8, 7, s).edges for s in range(20)}
        assert len(shapes) > 10

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            random_connected_graph(1, 0, 0)


class TestRandomCactus:
    def test_zero_cycles_grows_a_tree(self):
        g = random_cactus(CactusSpec(0, (3, 3), 6, seed=1))
        assert classify(g).tag is GraphClassTag.TREE

    def test_single_bare_cycle(self):
        g = random_cactus(CactusSpec(1, (5, 5), 0, seed=2))
        info = classify(g)
        assert info.cycle_count == 1 and info.tag is not GraphClassTag.GENERAL
        assert g.n == 5 and g.m == 5

    def test_two_cycles(self):
        g = random_cactus(CactusSpec(2, (3, 6), 2, seed=3))
        info = classify(g)
        assert info.tag is GraphClassTag.CACTUS
        assert graph_stats(g).cyclomatic == 2

    def test_deterministic_in_seed(self):
        a = random_cactus(CactusSpec(2, (3, 6), 3, seed=11))
        b = random_cactus(CactusSpec(2, (3, 6), 3, seed=11))
        assert a.edges == b.edges

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            random_cactus(CactusSpec(1, (2, 5), 0, seed=0))
        with pytest.raises(InvalidSpecError):
            random_cactus(CactusSpec(-1, (3, 5), 0, seed=0))
        with pytest.raises(InvalidSpecError):
            random_cactus(CactusSpec(0, (3, 5), 0, seed=0))


class TestRandomConnectedGraph:
    def test_tree_edge_count(self):
        g = random_connected_graph(4, 3, seed=0)
        assert g.m == 3 and classify(g).tag is GraphClassTag.TREE

    def test_forced_complete_graphs(self):
        assert random_connected_graph(4, 6, seed=1).edges == complete(4).edges
        assert random_connected_graph(5, 10, seed=2).edges == complete(5).edges

    def test_infeasible_edge_counts(self):
        with pytest.raises(InfeasibleEdgeCountError):
            random_connected_graph(4, 2, seed=0)
        with pytest.raises(InfeasibleEdgeCountError):
            random_connected_graph(4, 7, seed=0)

    @given(st.integers(3, 9), st.integers(0, 10), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_connected_with_requested_edges(self, n, extra, seed):
        m = min(n - 1 + extra, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed)
        assert g.n == n and g.m == m  # connectivity enforced by build_graph

    def test_deterministic_in_seed(self):
        a = random_connected_graph(8, 14, seed=42)
        b = random_connected_graph(8, 14, seed=42)
        assert a.edges == b.edges

    @given(st.integers(2, 40), st.floats(0, 1), st.integers(0, 10**6))
    @settings(max_examples=300)
    def test_draws_the_listed_non_edges(self, n, fill, seed):
        # Sampling ranks must pick the very chords that sampling the sorted
        # list of non-edges picks, so seeded campaigns keep their graphs.
        m = n - 1 + round(fill * ((n - 1) * (n - 2) // 2))
        got = random_connected_graph(n, m, seed)
        assert got.edges == reference_random_connected_graph(n, m, seed).edges


class TestEvaluateConjecture:
    def test_bowtie_attains_the_bound(self):
        rec = evaluate_conjecture(bowtie())
        assert rec.mdim == 4 and rec.bound == 4
        assert rec.holds and rec.gap == 0 and rec.mdim_source == "formula"

    def test_complete_graph_uses_the_oracle(self):
        rec = evaluate_conjecture(complete(4))
        assert rec.mdim == 4 and rec.bound == 6 and rec.gap == 2
        assert rec.holds and rec.mdim_source == "oracle"

    def test_tree_bound_is_tight(self):
        rec = evaluate_conjecture(path(5))
        assert rec.mdim == 2 and rec.bound == 2 and rec.holds

    def test_bare_ring_is_excluded_not_violating(self):
        rec = evaluate_conjecture(cycle(6))
        assert rec.excluded and not rec.holds and rec.mdim == 3 and rec.bound == 2

    def test_too_large_for_oracle(self):
        with pytest.raises(TooLargeError):
            evaluate_conjecture(complete(6), max_n=5)

    def test_classifies_once(self, monkeypatch):
        import mixedmetric.conjecture as conj_mod

        calls = []
        real = conj_mod.decompose
        monkeypatch.setattr(conj_mod, "decompose", lambda g: calls.append(g) or real(g))
        rec = evaluate_conjecture(wheel(5))
        assert rec.mdim_source == "oracle" and len(calls) == 1

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gap_zero_iff_every_cycle_has_one_root(self, cycles, pendants, seed):
        g = random_cactus(CactusSpec(cycles, (3, 6), pendants, seed))
        if classify(g).tag is GraphClassTag.CYCLE:
            return
        rec = evaluate_conjecture(g)
        assert rec.holds
        assert (rec.gap == 0) == all(c.rt == 1 for c in decompose(g).cycles)


class TestRunCampaign:
    def test_empty_campaign(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        summary = run_campaign(CampaignConfig(count=0, output_path=str(out)))
        assert out.read_text() == ""
        assert summary.count == 0 and summary.min_gap is None and not summary.violations

    def test_cactus_campaign_always_holds(self, tmp_path):
        out = tmp_path / "cacti.jsonl"
        config = CampaignConfig(count=40, output_path=str(out), seed=9,
                                n_range=(4, 12), m_strategy="cactus")
        summary = run_campaign(config)
        live = summary.count - summary.excluded
        assert summary.count == 40 and summary.holds == live
        assert not summary.violations

    def test_reruns_are_byte_identical(self, tmp_path):
        config_a = CampaignConfig(count=15, output_path=str(tmp_path / "a.jsonl"), seed=3)
        config_b = CampaignConfig(count=15, output_path=str(tmp_path / "b.jsonl"), seed=3)
        run_campaign(config_a)
        run_campaign(config_b)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("fields, digest", [
        (dict(count=200, seed=0, n_range=(10, 14)),
         "641219aedf854531f9c19ed86f1b81daae8a23c08fef42f04fa8888cd01a3d1a"),
        (dict(count=300, seed=4, n_range=(6, 30), m_strategy="cactus"),
         "5587147fdc00e297aa5a30f5b5d6f99aa894422615cf6597117e4207267f0510"),
    ], ids=["general", "cactus"])
    def test_pinned_campaigns_keep_their_bytes(self, tmp_path, fields, digest):
        # The CLI's `conjecture --count 200 --seed 0 --n-range 10..14` and
        # `--count 300 --seed 4 --cactus --n-range 6..30` write these files.
        out = tmp_path / "pinned.jsonl"
        run_campaign(CampaignConfig(output_path=str(out), **fields))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_resume_continues_the_seed_sequence(self, tmp_path):
        # The cactus campaign's records come from the formula, and records
        # 1 and 3 are excluded bare rings, so resuming reads both kinds.
        for name, fields in (("density", dict(seed=5)),
                             ("cactus", dict(seed=1, n_range=(4, 8), m_strategy="cactus")),
                             ("fixed-m", dict(seed=2, n_range=(5, 7), fixed_m=8))):
            whole = tmp_path / f"{name}-whole.jsonl"
            split = tmp_path / f"{name}-split.jsonl"
            run_campaign(CampaignConfig(count=12, output_path=str(whole), **fields))
            run_campaign(CampaignConfig(count=7, output_path=str(split), **fields))
            run_campaign(CampaignConfig(count=12, output_path=str(split), **fields))
            assert whole.read_bytes() == split.read_bytes(), name
        cacti = (tmp_path / "cactus-whole.jsonl").read_text().splitlines()
        assert any(json.loads(line)["excluded"] for line in cacti)

    def test_resume_under_another_config_is_rejected_untouched(self, tmp_path):
        out = tmp_path / "mixed.jsonl"
        run_campaign(CampaignConfig(count=7, output_path=str(out), seed=5))
        written = out.read_bytes()
        for other in (CampaignConfig(count=12, output_path=str(out), seed=6),
                      CampaignConfig(count=12, output_path=str(out), seed=5,
                                     m_strategy="cactus")):
            with pytest.raises(CampaignFileError, match="line 1"):
                run_campaign(other)
            assert out.read_bytes() == written

    def test_records_carry_the_documented_fields(self, tmp_path):
        out = tmp_path / "fields.jsonl"
        run_campaign(CampaignConfig(count=3, output_path=str(out), seed=1))
        for line in out.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {
                "graph_id", "n", "m", "l1", "cyclomatic", "mdim",
                "mdim_source", "bound", "holds", "gap", "excluded",
            }
            assert record["gap"] == record["bound"] - record["mdim"]
            assert record["holds"] == (record["mdim"] <= record["bound"])

    def test_fixed_strategy(self, tmp_path):
        out = tmp_path / "fixed.jsonl"
        config = CampaignConfig(count=6, output_path=str(out), seed=2,
                                n_range=(5, 7), fixed_m=8)
        summary = run_campaign(config)
        assert summary.count == 6
        for line in out.read_text().splitlines():
            assert json.loads(line)["m"] == 8

    @pytest.mark.parametrize("fields, error", [
        (dict(m_strategy="bogus"), InvalidSpecError),
        (dict(m_strategy="fixed", fixed_m=8), InvalidSpecError),
        (dict(n_range=(0, 0)), TooSmallError),
        (dict(n_range=(1, 3)), TooSmallError),
        (dict(n_range=(1, 3), fixed_m=2), TooSmallError),
        (dict(n_range=(5, 3), m_strategy="cactus"), InvalidSpecError),
        (dict(density=7.5), InvalidSpecError),
        (dict(density=-0.1), InvalidSpecError),
        (dict(density=float("nan")), InvalidSpecError),
        (dict(m_strategy="cactus", fixed_m=8), InvalidSpecError),
        (dict(m_strategy="cactus", density=0.9), InvalidSpecError),
        (dict(m_strategy="cactus", fixed_m=8, density=0.9), InvalidSpecError),
    ], ids=["unknown-strategy", "removed-fixed-strategy", "density-n-0", "density-n-1",
            "fixed-n-1", "reversed-n-range", "density-above-1", "density-below-0", "density-nan",
            "cactus-fixed-m", "cactus-density", "cactus-fixed-m-and-density"])
    def test_config_that_cannot_generate_is_refused_before_the_file_opens(self, tmp_path,
                                                                           fields, error):
        out = tmp_path / "refused.jsonl"
        with pytest.raises(error):
            run_campaign(CampaignConfig(count=2, output_path=str(out), **fields))
        assert not out.exists()

    def test_cactus_strategy_takes_any_n_range(self, tmp_path):
        # The range sets only the longest cycle there: max(3, min(6, n - 1)).
        out = tmp_path / "cacti.jsonl"
        summary = run_campaign(CampaignConfig(count=3, output_path=str(out), n_range=(0, 1),
                                              m_strategy="cactus"))
        assert summary.count == 3 and len(out.read_text().splitlines()) == 3

    def test_truncated_last_line_is_rejected_untouched(self, tmp_path):
        out = tmp_path / "cut.jsonl"
        run_campaign(CampaignConfig(count=3, output_path=str(out), seed=1))
        cut = out.read_bytes()[:-20]
        out.write_bytes(cut)
        with pytest.raises(CampaignFileError, match="line 3"):
            run_campaign(CampaignConfig(count=5, output_path=str(out), seed=1))
        assert out.read_bytes() == cut

    def test_blank_line_is_rejected_untouched(self, tmp_path):
        # The writer writes none, so a resumed file with one in it would
        # differ from a fresh run's.
        out = tmp_path / "blank.jsonl"
        run_campaign(CampaignConfig(count=2, output_path=str(out), seed=1))
        lines = out.read_bytes().splitlines(keepends=True)
        edited = b"".join([lines[0], b"\n", lines[1]])
        out.write_bytes(edited)
        with pytest.raises(CampaignFileError, match="line 2 is not a complete campaign record"):
            run_campaign(CampaignConfig(count=3, output_path=str(out), seed=1))
        assert out.read_bytes() == edited

    def test_wrongly_typed_field_is_rejected_untouched(self, tmp_path):
        out = tmp_path / "typed.jsonl"
        config = CampaignConfig(count=3, output_path=str(out), seed=1)
        run_campaign(config)
        lines = out.read_bytes().splitlines(keepends=True)
        first = json.loads(lines[1])
        # The graph_id still matches, so only the types give these away.
        for field, value in (("gap", None), ("holds", "yes"), ("mdim", 4.0),
                             ("n", True), ("excluded", 0), ("mdim_source", 1),
                             ("graph_id", None)):
            edited = b"".join([lines[0], json.dumps({**first, field: value}).encode() + b"\n",
                               lines[2]])
            out.write_bytes(edited)
            with pytest.raises(CampaignFileError, match="line 2"):
                run_campaign(config)
            assert out.read_bytes() == edited, field

    def test_contradictory_record_is_rejected_untouched(self, tmp_path):
        out = tmp_path / "edited.jsonl"
        config = CampaignConfig(count=3, output_path=str(out), seed=1)
        run_campaign(config)
        lines = out.read_bytes().splitlines(keepends=True)
        first = json.loads(lines[1])
        other_source = {"formula": "oracle", "oracle": "formula"}[first["mdim_source"]]
        # Types and graph_id still match, so only the values give these away.
        # The l1 edit agrees with itself but not with the graph.  The empty
        # edit keeps every value and only writes json.dumps's default
        # separators, so a resumed file would differ from a fresh run's.
        edits = [{"holds": not first["holds"]}, {"gap": -7}, {"bound": first["bound"] + 1},
                 {"n": first["n"] + 1}, {"m": first["m"] + 1},
                 {"cyclomatic": first["cyclomatic"] + 1}, {"excluded": not first["excluded"]},
                 {"l1": first["l1"] + 1, "bound": first["bound"] + 2, "gap": first["gap"] + 2},
                 {}, {"mdim_source": "banana"}, {"mdim_source": other_source}]
        for edit in edits:
            edited = b"".join([lines[0], json.dumps({**first, **edit}).encode() + b"\n",
                               lines[2]])
            out.write_bytes(edited)
            with pytest.raises(CampaignFileError, match="line 2 holds a record that contradicts"):
                run_campaign(config)
            assert out.read_bytes() == edited, edit

    def test_graph_past_the_cap_is_refused_before_it_is_built(self, tmp_path, monkeypatch):
        import mixedmetric.conjecture as conj_mod

        def build(n, m, seed):
            raise RuntimeError(f"built a graph with n = {n}")

        monkeypatch.setattr(conj_mod, "random_connected_graph", build)
        config = CampaignConfig(count=1, output_path=str(tmp_path / "big.jsonl"),
                                n_range=(1500, 1500))
        with pytest.raises(TooLargeError, match="n = 1500 exceeds the search cap 16"):
            run_campaign(config)

    def test_sparse_graph_past_the_cap_is_still_built(self, tmp_path):
        # m = n - 1 can only be a tree, which the formula handles at any n.
        out = tmp_path / "trees.jsonl"
        config = CampaignConfig(count=2, output_path=str(out), n_range=(40, 40), fixed_m=0)
        assert run_campaign(config).count == 2
        assert all(json.loads(line)["mdim_source"] == "formula"
                   for line in out.read_text().splitlines())
