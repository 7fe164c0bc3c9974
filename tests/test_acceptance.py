"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import json
import random
import subprocess
import sys
import time

import networkx as nx
import pytest

from mixedmetric import (
    CactusSpec,
    CampaignConfig,
    GraphClassTag,
    brute_force_mdim,
    build_graph,
    build_min_generator,
    classify,
    decompose,
    evaluate_conjecture,
    graph_stats,
    mdim_exact,
    random_cactus,
    random_connected_graph,
    run_campaign,
)
from mixedmetric.cli import run

from graphs import complete, cycle, cycle_with_pendants, k33, prism, triangle_chain, wheel

# Graphs accumulated by criteria 1-4 and reused by criterion 5.
_BOUND_POOL = []


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_tree_law():
    """Exhaustive non-isomorphic trees n <= 9: formula = leaf count = oracle."""
    start = time.monotonic()
    checked = 0
    ok = True
    for n in range(2, 10):
        for t in nx.nonisomorphic_trees(n):
            g = build_graph(n, list(t.edges()))
            l1 = graph_stats(g).l1
            if not (mdim_exact(g).total == l1 == brute_force_mdim(g).value):
                ok = False
            _BOUND_POOL.append(g)
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _verdict(1, ok, f"{checked} trees, {elapsed:.1f}s")
    assert ok


def test_criterion_2_cycle_value():
    """C_n for 3 <= n <= 10 has dimension exactly 3 on both paths."""
    ok = True
    for n in range(3, 11):
        g = cycle(n)
        report = mdim_exact(g)
        if report.total != 3 or report.per_cycle[0].rt != 0:
            ok = False
        if brute_force_mdim(g).value != 3:
            ok = False
        _BOUND_POOL.append(g)
    _verdict(2, ok, "C_3..C_10 all give 3")
    assert ok


def _random_unicyclic(seed: int):
    rng = random.Random(f"unicyclic:{seed}")
    length = rng.randint(3, 8)
    pendants = rng.randint(0, 12 - length)
    return random_cactus(CactusSpec(1, (length, length), pendants, rng.randrange(2**32)))


def test_criterion_3_unicyclic_equivalence():
    """200 random unicyclic graphs n <= 12 plus forced clustered-root cases."""
    graphs = [_random_unicyclic(seed) for seed in range(200)]
    # Clustered pendants on 8- and 9-rings force rt >= 3 without a triple.
    for shift in range(8):
        graphs.append(cycle_with_pendants(8, [(shift + k) % 8 for k in range(3)]))
    for shift in range(3):
        graphs.append(cycle_with_pendants(9, [(shift + k) % 9 for k in range(3)]))
    graphs.append(cycle_with_pendants(8, [0, 1, 3]))
    graphs.append(cycle_with_pendants(8, [0, 1, 2, 3]))

    ok = True
    forced_delta = 0
    for g in graphs:
        assert g.n <= 12 and classify(g).cycle_count == 1
        report = mdim_exact(g)
        if report.total != brute_force_mdim(g).value:
            ok = False
        (term,) = report.per_cycle
        if term.rt >= 3 and report.delta == 1:
            forced_delta += 1
        _BOUND_POOL.append(g)
    ok = ok and forced_delta >= 10
    _verdict(3, ok, f"{len(graphs)} graphs, {forced_delta} with rt>=3 and delta=1")
    assert ok


def _random_multicycle_cactus(seed: int):
    rng = random.Random(f"cactus:{seed}")
    cycles = rng.choice((2, 3))
    if cycles == 2:
        spec = CactusSpec(2, (3, 5), rng.randint(0, 5), rng.randrange(2**32))
    else:
        spec = CactusSpec(3, (3, 4), rng.randint(0, 4), rng.randrange(2**32))
    return random_cactus(spec)


def test_criterion_4_cactus_equivalence():
    """100 random cacti with 2-3 cycles: formula = oracle, certificates hold."""
    ok = True
    for seed in range(100):
        g = _random_multicycle_cactus(seed)
        assert g.n <= 14 and classify(g).tag is GraphClassTag.CACTUS
        report = mdim_exact(g)
        if report.total != brute_force_mdim(g).value:
            ok = False
        cert = build_min_generator(g)
        if not cert.verified or len(cert.vertices) != report.total:
            ok = False
        _BOUND_POOL.append(g)
    _verdict(4, ok, "100 cacti, formula = oracle, certificates verified")
    assert ok


def test_criterion_5_corollary_bounds():
    """Bound l1 + 2c holds on the pool, tight iff every cycle has one root."""
    assert _BOUND_POOL, "criteria 1-4 populate the pool first"
    ok = True
    for g in _BOUND_POOL:
        info = classify(g)
        if info.tag is GraphClassTag.CYCLE:
            continue  # the bound statement excludes the bare ring
        total = mdim_exact(g).total
        stats = graph_stats(g)
        bound = stats.l1 + 2 * info.cycle_count
        if total > bound:
            ok = False
        tight = all(c.rt == 1 for c in decompose(g).cycles)
        if (total == bound) != tight:
            ok = False
    chains_ok = True
    for c in (2, 3, 4):
        g = triangle_chain(c)
        if mdim_exact(g).total != 2 * c:
            chains_ok = False
        if g.n <= 16 and brute_force_mdim(g).value != 2 * c:
            chains_ok = False
    ok = ok and chains_ok
    _verdict(5, ok, f"{len(_BOUND_POOL)} pooled graphs + triangle chains c=2,3,4")
    assert ok


def test_criterion_6_conjecture_harness():
    """1000 random connected non-cactus graphs n <= 10: no bound violation."""
    densities = (0.3, 0.45, 0.6, 0.8)
    rng = random.Random("conjecture-harness")
    violations = []
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        n = rng.randint(4, 10)
        max_m = n * (n - 1) // 2
        m = min(max(round(rng.choice(densities) * max_m), n - 1), max_m)
        g = random_connected_graph(n, m, rng.randrange(2**32))
        if classify(g).tag is not GraphClassTag.GENERAL:
            continue
        record = evaluate_conjecture(g)
        if not record.holds:
            violations.append(record)
        checked += 1
    if violations:
        print("COUNTEREXAMPLE CANDIDATES (bound l1 + 2c violated):")
        for record in violations:
            print(json.dumps(record._asdict(), sort_keys=True))
    ok = not violations
    _verdict(6, ok, f"{checked} non-cactus graphs ({attempts} sampled), "
                    f"{len(violations)} violations")
    assert ok


def test_criterion_7_three_connected_strictness():
    """Oracle dimension stays strictly below 2(m - n + 1) when 3-connected."""
    cases = {
        "K4": complete(4), "K5": complete(5), "K3,3": k33(),
        "prism": prism(), "W5": wheel(5),
    }
    ok = True
    details = []
    for name, g in cases.items():
        stats = graph_stats(g)
        assert nx.node_connectivity(nx.Graph(g.edges)) >= 3, name
        value = brute_force_mdim(g).value
        details.append(f"{name}: {value} < {2 * stats.cyclomatic}")
        if value >= 2 * stats.cyclomatic:
            ok = False
    if brute_force_mdim(complete(4)).value != 4:
        ok = False
    _verdict(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_determinism(tmp_path, capsys):
    """CLI JSON and campaign JSONL replay byte-identically."""
    graph_path = tmp_path / "bowtie.txt"
    graph_path.write_text("5 6\n0 1\n1 2\n2 0\n0 3\n3 4\n4 0\n")
    outputs = []
    for _ in range(2):
        for argv in (["classify", str(graph_path), "--json"],
                     ["dim", str(graph_path), "--json"],
                     ["generator", str(graph_path), "--json"],
                     ["bounds", str(graph_path), "--json"]):
            assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    cli_ok = outputs[0] == outputs[1]

    files = []
    for name in ("one.jsonl", "two.jsonl"):
        config = CampaignConfig(count=25, output_path=str(tmp_path / name),
                                seed=13, n_range=(4, 9))
        run_campaign(config)
        files.append((tmp_path / name).read_bytes())
    campaign_ok = files[0] == files[1] and len(files[0].splitlines()) == 25

    proc = [subprocess.run(
        [sys.executable, "-m", "mixedmetric", "dim", str(graph_path), "--json"],
        capture_output=True, text=True).stdout for _ in range(2)]
    ok = cli_ok and campaign_ok and proc[0] == proc[1]
    _verdict(8, ok, "CLI JSON and campaign JSONL byte-identical across reruns")
    assert ok
