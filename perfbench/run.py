"""Seeded benchmark of the mixedmetric package, built from this checkout's src/.

One workload, one JSON line as the last line of stdout:

    python3 perfbench/run.py --workload cactus-formula --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics of BENCHMARK.json and `--trace 1`
its per-layer metrics, from spans recorded around the package's public
functions (written to perfbench/out/).  The line before it holds the
unscaled times and the median time of the host-speed gauge.  The exit code is 1 when a
correctness check fails and 2 when the package is not found.

Every workload, several seeds each plus one traced run, as a table:

    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out results.json

Compare two such result files with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_CALIBRATIONS = 5  # before and after each set-up
# Other tenants of a shared host slow every process on it, by up to 1.8x,
# switching on and off within seconds.  Every time is therefore reported as
# if the gauge runs around it had taken a reference time, about the gauge's
# time on the 2-core Xeon VM of the committed baseline; for calibrate():
REFERENCE_CALIBRATION_S = 0.003
# One calibration runs per this much time; an operation is scaled by the
# median gauge time within this window around it, whichever the gauge.
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_WINDOW_S = 1.0
# Collector thresholds inside calibrate(): CPython's young-generation
# defaults, and no full collection, whose cost grows with the package's heap.
CALIBRATION_GC_THRESHOLDS = (700, 10, 1_000_000)
# The CLI workload's gauge is a fresh interpreter importing numpy but not
# the package: its operations are process starts and imports, whose
# slowdowns the in-process job does not follow.  Over 100 s of CLI calls,
# scaling by the in-process job left their spread at 15%, by a bare
# interpreter start cut it to 11% and by this gauge to 9%.  One gauge per
# this much run time, reported against this reference time.
IMPORT_INTERVAL_S = 1.0
REFERENCE_IMPORT_S = 0.2


@dataclass(frozen=True)
class Gauge:
    """A fixed job that runs no package code, timed between operations."""

    job: Callable[[], float]  # runs the job once; returns the seconds it took
    interval_s: float         # one job per this much run time
    reference_s: float        # the job's time at the reference host speed


def operation_names(operation: str) -> dict[str, str]:
    """The name each end-to-end metric has for a workload's kind of operation.

    "graph" gives graphs_per_s, graph_p50_ms and graph_tail_ms; "cli_call"
    gives cli_calls_per_s, cli_call_p50_ms and cli_call_tail_ms.
    """
    return {"ops_per_s": f"{operation}s_per_s", "op_p50_ms": f"{operation}_p50_ms",
            "op_tail_ms": f"{operation}_tail_ms"}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples: list[float], percentile: float) -> float:
    """The `percentile`-th percentile of the samples, interpolated between ranks."""
    ordered = sorted(samples)
    position = (len(ordered) - 1) * percentile / 100
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python job, a gauge of the host's current speed.

    The job allocates tuples and lists and hashes them into a dict, the kind
    of work that dominates the package, and runs no package code.  On a
    shared host its time followed the package's slowdowns more closely than
    breadth-first searches did, and more closely with the garbage collector
    on than paused: the collections it triggers make it sensitive to memory
    contention too.  It runs with the collector on at
    CALIBRATION_GC_THRESHOLDS whatever the package has set, and restores the
    package's settings afterwards, so that neither those settings nor the
    size of the package's heap reach the gauge.
    """
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*CALIBRATION_GC_THRESHOLDS)
    gc.enable()
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int, int], list] = {}
        for i in range(4000):
            table.setdefault((i % 97, i % 89, i % 83), []).append(tuple(range(i % 7)))
        return time.perf_counter() - start
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def scaled(seconds: float, gauge_s: float, reference_s: float) -> float:
    """A time measured while the gauge took `gauge_s`, at the reference host speed."""
    return seconds * reference_s / gauge_s


def measure(plan, seconds: float, gauge: Gauge, tracer=None):
    """Run whole rounds of operations until `seconds` have passed.

    Returns each round's operations as (start, end) times, the gauge
    timeline as (time, gauge seconds), and the errors.  After each
    operation, gauge jobs run, one for every `gauge.interval_s` since the
    previous one, so that they are as dense around a 0.5 s operation as
    around short ones: single calibrations a second apart read anywhere
    from 1.6 to 3.5 ms, and only the median of many tracks the host's speed.
    """
    timeline = [(time.perf_counter(), gauge.job())]
    rounds, errors = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        spans = []
        for _ in range(plan.round_size):
            if tracer is not None:
                tracer.graph = k
            t0 = time.perf_counter()
            try:
                out = plan.run(k)
                error = None
            except Exception:  # a failed operation is counted, and the run goes on
                out, error = None, traceback.format_exc(limit=-3)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            if tracer is not None:
                tracer.graph = None
            if error is None:
                error = plan.check(k, out)
            if error is not None:
                errors.append(f"operation {k}: {error}")
            for _ in range(int((time.perf_counter() - timeline[-1][0]) / gauge.interval_s)):
                timeline.append((time.perf_counter(), gauge.job()))
            k += 1
        rounds.append(spans)
    timeline.append((time.perf_counter(), gauge.job()))
    return rounds, timeline, errors


def host_speed(at: list[float], calibrations: list[float], t0: float, t1: float) -> float:
    """The median gauge time within CALIBRATION_WINDOW_S of the interval [t0, t1].

    `calibrations[i]` ended at time `at[i]`; the gauge runs just before
    and just after the interval always count.
    """
    lo = min(bisect.bisect_left(at, t0 - CALIBRATION_WINDOW_S), max(bisect.bisect_left(at, t0) - 1, 0))
    hi = max(bisect.bisect_right(at, t1 + CALIBRATION_WINDOW_S), bisect.bisect_right(at, t1) + 1)
    return statistics.median(calibrations[lo:hi])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    import workloads
    from tracing import Tracer

    sizes = workloads.SMOKE if smoke else workloads.FULL
    env = workloads.package_env(SRC)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            # Set-up is what a user pays before the first answer: a fresh
            # interpreter loading the package, and the workload's inputs.
            before = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            t0 = time.perf_counter()
            workloads.time_python("import mixedmetric", env)
            plan = workloads.build(workload, seed, work, sizes, SRC)
            elapsed = time.perf_counter() - t0
            after = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            setup_times.append(scaled(elapsed, statistics.median(before + after), REFERENCE_CALIBRATION_S))
        errors = plan.gate()
        if plan.operation == "cli_call":
            gauge = Gauge(lambda: workloads.time_python("import numpy", env), IMPORT_INTERVAL_S,
                          REFERENCE_IMPORT_S)
        else:
            gauge = Gauge(calibrate, CALIBRATION_INTERVAL_S, REFERENCE_CALIBRATION_S)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            rounds, timeline, op_errors = measure(plan, seconds, gauge, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        errors += op_errors + plan.finish()
        layer = plan.probe() if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if plan.operation == "cli_call"
                               else resource.RUSAGE_SELF)
    at, calibrations = (list(column) for column in zip(*timeline))
    raw = [t1 - t0 for spans in rounds for t0, t1 in spans]
    samples = [scaled(t1 - t0, host_speed(at, calibrations, t0, t1), gauge.reference_s)
               for spans in rounds for t0, t1 in spans]
    tail_pct = plan.tail_percentile
    tail_s = tail(samples, tail_pct)
    names = operation_names(plan.operation)
    end_to_end = {
        # From the median round: a calibration window slowed by a garbage
        # collection shrinks a few scaled times, which would skew a mean.
        "ops_per_s": plan.round_size / statistics.median(
            sum(samples[i:i + plan.round_size]) for i in range(0, len(samples), plan.round_size)),
        "op_p50_ms": 1000 * statistics.median(samples),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    operations = len(samples)
    attempted, failed = operations, len(op_errors)
    # Failed gate checks (cross-check, pins, reruns) count as failed operations too.
    gate_failures = len(errors) - failed
    attempted += gate_failures
    failed += gate_failures
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    # Unscaled figures, on a stdout line of their own before the result, so
    # that a verdict on scaled times can be checked against raw ones.
    detail = {"operation": plan.operation, "samples": operations, "tail_percentile": tail_pct,
              "raw_p50_ms": 1000 * statistics.median(raw), "raw_tail_ms": 1000 * tail(raw, tail_pct),
              "calibration_ms": 1000 * statistics.median(calibrations)}
    print(f"{workload} seed {seed}: {operations} operations, failed_ratio {failed / attempted:.4g}; "
          f"calibration median {detail['calibration_ms']:.3g} ms against "
          f"{1000 * gauge.reference_s:.3g} ms at reference speed; raw p50 "
          f"{detail['raw_p50_ms']:.6g} ms", file=sys.stderr)

    bench = spec()
    if trace:
        layer.update(tracer.metrics(operations))
        layer["trace.ops_per_s"] = end_to_end["ops_per_s"]
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        for name in tracer.absent:
            print(f"absent: {name} (no such function; its metrics read 0)", file=sys.stderr)
        print(f"{len(tracer.spans)} spans written to {spans_path}", file=sys.stderr)
        wanted, values = bench["per_layer"], layer
    else:
        wanted, values = bench["end_to_end"], end_to_end
        for name, value in end_to_end.items():
            beyond = sum(s > tail_s for s in samples)
            note = f"  (p{tail_pct:g} of {len(samples)} samples, {beyond} beyond)" if name == "op_tail_ms" else ""
            print(f"  {names.get(name, name)} = {value:.6g}{note}", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    correct = failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---- every workload --------------------------------------------------------------

def child_run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"seed": seed, "correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {}, "exit": proc.returncode}
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]), seed=seed, exit=proc.returncode)
    return result


def stamp(seeds: list[int], seconds: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seeds": seeds, "seconds": seconds}


def run_all(seed: int, runs: int, seconds: float, smoke: bool, out: str | None) -> int:
    from compare import spread

    bench = spec()
    seeds = list(range(seed, seed + runs))
    results = {"stamp": stamp(seeds, seconds), "workloads": {}}
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        plain = [child_run(name, s, seconds, False, smoke) for s in seeds]
        traced = child_run(name, seed, seconds, True, smoke)
        results["workloads"][name] = {"runs": plain, "traced": traced}
        ok = ok and all(r["correct"] and r["exit"] == 0 for r in plain + [traced])

    print(f"{'workload':18} {'metric':22} {'median':>12} {'unit':6} {'spread':>7}  bound")
    for name, data in results["workloads"].items():
        names = operation_names(data["traced"]["detail"].get("operation", "operation"))
        runs_ = data["runs"]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs_ if m["name"] in r["metrics"]]
            if values:
                print(f"{name:18} {names.get(m['name'], m['name']):22} {statistics.median(values):12.6g} "
                      f"{m['unit']:6} {spread(values):7.3f}  {m['bound']}")
        attempted = sum(r["attempted"] for r in runs_)
        failed = sum(r["failed"] for r in runs_)
        print(f"{name:18} {'failed_ratio':22} {failed / attempted:12.6g} {'ratio':6}")
        traced = data["traced"]["metrics"].get("trace.ops_per_s", {}).get("value")
        plain_rate = [r["metrics"]["ops_per_s"]["value"] for r in runs_ if "ops_per_s" in r["metrics"]]
        if traced and plain_rate:
            print(f"{name:18} {'tracing_overhead':22} {statistics.median(plain_rate) / traced:12.6g} "
                  f"{'x':6}  (median untraced ops_per_s / traced ops_per_s)")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5, help="with --workload all: seeds per workload")
    parser.add_argument("--out", help="with --workload all: write the results to this file")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "mixedmetric" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'mixedmetric'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mixedmetric

    if not Path(mixedmetric.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mixedmetric from {mixedmetric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_all(args.seed, args.runs, seconds, args.smoke, args.out)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
