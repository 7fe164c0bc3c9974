"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload on a handful of small graphs, untraced and traced, then
the all-workloads report and the compare command on its output.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--smoke"],
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["detail"]["raw_p50_ms"] > 0 and detail["detail"]["calibration_ms"] > 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 and m["unit"] for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["trace.ops_per_s"] > 0
    blocks = metrics["structure.biconnected_blocks.calls_per_graph"]
    if workload == "cactus-formula":
        assert blocks == 6  # 3 from mdim_exact, 3 from bound_report
        assert metrics["oracle.brute_force_mdim.self_ms"] == 0
    elif workload.startswith("cactus-certify"):
        assert blocks == 5
        assert 0 < metrics["oracle.is_mixed_generator.used_column_ratio"] < 1
    elif workload == "campaign-general":
        assert metrics["graph.graph_stats.calls_per_graph"] >= 1
        assert metrics["oracle.brute_force_mdim.subsets_tried"] >= 1
    else:
        assert metrics["cli.interpreter_ms"] > 0 and metrics["cli.import_ms"] > 0


def test_subsets_tried_matches_the_search_order():
    from mixedmetric import brute_force_mdim, build_graph

    ring = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    result = brute_force_mdim(ring)
    assert result.witness == (0, 1, 3)
    # No leaves: 6 singletons, 15 pairs, then (0, 1, 2) fails and (0, 1, 3) holds.
    assert tracing.subsets_tried(ring, result.witness) == 23


def test_tail_is_a_fixed_percentile():
    assert run.tail([5.0, 1.0, 4.0, 2.0, 3.0], 75) == 4.0
    assert run.tail([1.0, 2.0], 75) == 1.75
    assert run.tail([7.0], 97.5) == 7.0


def test_calibration_leaves_the_collector_settings_alone():
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.disable()
    gc.set_threshold(5000, 20, 30)
    try:
        assert run.calibrate() > 0
        assert not gc.isenabled() and gc.get_threshold() == (5000, 20, 30)
    finally:
        gc.set_threshold(*thresholds)
        if enabled:
            gc.enable()


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [100.0, 100.2, 99.8, 100.1], "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [130.0, 131.0, 129.0, 130.5], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [70.0, 71.0, 69.0, 70.5], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [70.0, 71.0, 69.0, 70.5], "higher", 0.1) == "regressed"
    noisy = [60.0, 100.0, 140.0, 100.0]
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [50.0, 52.0, 51.0, 50.5], "lower", 0.1) == "improved"


def test_report_and_compare(tmp_path):
    out = tmp_path / "results.json"
    proc = bench("--workload", "all", "--seed", "5", "--runs", "2", "--seconds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for name in ("graphs_per_s", "graph_p50_ms", "graph_tail_ms", "cli_call_p50_ms",
                 "cli_call_tail_ms", "peak_rss_mb", "setup_s", "failed_ratio", "tracing_overhead"):
        assert name in proc.stdout
    results = json.loads(out.read_text(encoding="utf-8"))
    assert set(results["stamp"]) == {"commit", "python", "numpy", "nproc", "seeds", "seconds"}
    assert set(results["workloads"]) == set(WORKLOADS)

    shown = subprocess.run([sys.executable, str(HERE / "compare.py"), str(out), str(out)],
                           capture_output=True, text=True, timeout=60)
    rows = shown.stdout.strip().splitlines()
    assert len(rows) == 1 + len(WORKLOADS)
    for row in rows[1:]:
        cells = row.split()
        assert cells[0] in WORKLOADS
        assert set(cells[1:-2]) <= {"improved", "regressed", "unchanged", "unresolved"}
        assert cells[-2] == "1.00"  # the same runs on both sides: the same calibration
        assert cells[-1].startswith("0/")
