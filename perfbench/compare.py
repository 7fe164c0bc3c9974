"""Compare two result files written by `run.py --workload all --out FILE`.

    python3 perfbench/compare.py parent.json change.json

One row per workload, one cell per end-to-end metric of BENCHMARK.json:
`improved` or `regressed` when the change's median moved the metric by more
than its bound, `unchanged` within the bound, and `unresolved` when either
side's run-to-run spread (quartile distance over median) exceeds the bound,
unless every run of the change beats every run of the parent.  Then come
two columns on unscaled times, which do not count towards the exit code:
`raw_p50_ms`, the unscaled op_p50_ms judged the same way, and `calibration`,
the change's median gauge time (the calibration job, or the numpy import on
cli-calls) over the parent's, 1.00 when the host ran at the same speed.  A
verdict that the raw column does not share, with a calibration ratio far
from 1, is worth measuring again.  The last column
is the change's failed operations over attempted ones.  The exit code is 1
when a scaled cell regressed or the change failed an operation.

This reads the metrics; a claimed gain still needs the paired runs that
the choosing-metrics method asks for.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    a, b = statistics.median(parent), statistics.median(change)
    worse = (b - a) / a if better == "lower" else (a - b) / a
    if max(spread(parent), spread(change)) > bound:
        beats_all = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        return "improved" if beats_all else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def detail(runs: list[dict], key: str) -> list[float]:
    return [r["detail"][key] for r in runs if key in r.get("detail", {})]


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> tuple[list[list[str]], bool]:
    p50_bound = next(m["bound"] for m in end_to_end if m["name"] == "op_p50_ms")
    rows, bad = [], False
    for name, new in change["workloads"].items():
        old = parent["workloads"].get(name)
        if old is None:
            continue
        row = [name]
        for m in end_to_end:
            before = [r["metrics"][m["name"]]["value"] for r in old["runs"] if m["name"] in r["metrics"]]
            after = [r["metrics"][m["name"]]["value"] for r in new["runs"] if m["name"] in r["metrics"]]
            cell = verdict(before, after, m["better"], m["bound"]) if before and after else "missing"
            bad = bad or cell in ("regressed", "missing")
            row.append(cell)
        before, after = detail(old["runs"], "raw_p50_ms"), detail(new["runs"], "raw_p50_ms")
        row.append(verdict(before, after, "lower", p50_bound) if before and after else "missing")
        before, after = detail(old["runs"], "calibration_ms"), detail(new["runs"], "calibration_ms")
        row.append(f"{statistics.median(after) / statistics.median(before):.2f}"
                   if before and after else "missing")
        failed = sum(r["failed"] for r in new["runs"])
        attempted = sum(r["attempted"] for r in new["runs"])
        bad = bad or failed > 0
        row.append(f"{failed}/{attempted}")
        rows.append(row)
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    rows, bad = compare(parent, change, end_to_end)
    header = ["workload"] + [m["name"] for m in end_to_end] + ["raw_p50_ms", "calibration", "failed"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
