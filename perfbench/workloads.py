"""The benchmark's workloads: inputs made from a seed, one timed operation, its checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned.  An operation is one graph for the
in-process workloads and one CLI subprocess for cli-calls.  The package is
called through its module attributes (`exact.mdim_exact`, not a name
imported here), so a traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from mixedmetric import cli, conjecture, exact, oracle, structure


@dataclass(frozen=True)
class Sizes:
    formula_cycles: int           # cactus-formula: CactusSpec(c, (3, 8), c, seed), n ~ 5.5 c
    formula_files: int            # distinct graph files cycled through
    certify_small_cycles: int     # cactus-certify-small: cacti of this many cycles
    certify_small_graphs: int     # distinct cacti cycled through
    certify_large_cycles: int     # cactus-certify-large: cacti of this many cycles
    certify_large_graphs: int     # distinct cacti cycled through
    campaign_sizes: tuple[int, ...]  # campaign-general: n cycles through these, one graph each
    cli_rounds: int               # cli-calls: distinct input sets cycled through


# Each workload certifies cacti of one size only, so that every run has the
# same mix of samples.  A c = 30 cactus (n ~ 180) takes about 30 ms and a
# c = 120 one (n ~ 660) about 0.5 s, nearly all of it the oracle's check and
# its n-by-n APSP, which also sets the peak memory.  At c = 300 (n ~ 1.7e3,
# 2.5 s) only seven fitted in a run, and the host's slowdowns, which switch
# on and off within seconds, spread the medians of ten runs by over 20%.
FULL = Sizes(
    formula_cycles=3000,
    formula_files=4,
    certify_small_cycles=30,
    certify_small_graphs=60,
    certify_large_cycles=120,
    certify_large_graphs=6,
    campaign_sizes=(10, 11, 12, 13, 13, 13, 13, 14, 14),
    cli_rounds=4,
)
# A handful of small graphs per workload, for the benchmark's own smoke test.
SMOKE = Sizes(
    formula_cycles=30,
    formula_files=2,
    certify_small_cycles=5,
    certify_small_graphs=2,
    certify_large_cycles=10,
    certify_large_graphs=1,
    campaign_sizes=(6, 7),
    cli_rounds=1,
)


@dataclass
class Plan:
    """What a workload measures once its inputs exist."""

    round_size: int                          # operations per round; runs stop on round boundaries
    run: Callable[[int], object]             # timed: operation index -> output
    check: Callable[[int, object], str | None]  # untimed: the error in an output, or None
    # The percentile reported as the tail.  The highest percentile with at
    # least ten samples beyond it would move with the sample count, which
    # grows on a faster host.  Each workload fixes a percentile that still
    # has ten samples beyond it at the smallest count per run seen on the
    # baseline host; cactus-certify-small uses p95, not p97.5, because the
    # host's brief slowdowns set its p97.5 and spread it by 12% over ten seeds.
    tail_percentile: float
    gate: Callable[[], list[str]] = lambda: []   # untimed, before the loop: failed checks
    finish: Callable[[], list[str]] = lambda: []  # untimed, after the loop: failed checks
    operation: str = "graph"                 # what one operation is: "graph" or "cli_call"
    probe: Callable[[], dict[str, float]] = lambda: {}  # traced runs only: extra layer metrics


def derived_seed(seed: int, tag: str, index: int = 0) -> int:
    return random.Random(f"{seed}:{tag}:{index}").randrange(2**62)


def cactus(cycles: int, seed: int, lengths: tuple[int, int] = (3, 8)):
    return conjecture.random_cactus(conjecture.CactusSpec(cycles, lengths, cycles, seed))


def write_graph(path: Path, g) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        fh.writelines(f"{u} {v}\n" for u, v in g.edges)


def package_env(src: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}


def time_python(code: str, env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to run `code`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - start


# ---- correctness gate shared by the cactus workloads ------------------------

CROSSCHECK_CACTI = 12


def crosscheck(seed: int) -> list[str]:
    """Formula against brute_force_mdim on CROSSCHECK_CACTI seeded cacti with n <= 12."""
    errors = []
    index = 0
    checked = 0
    while checked < CROSSCHECK_CACTI:
        rng = random.Random(f"{seed}:crosscheck:{index}")
        index += 1
        spec = conjecture.CactusSpec(rng.randint(1, 3), (3, 5), rng.randint(0, 3), rng.randrange(2**62))
        g = conjecture.random_cactus(spec)
        if g.n > 12:
            continue
        checked += 1
        formula = exact.mdim_exact(g).total
        truth = oracle.brute_force_mdim(g).value
        if formula != truth:
            errors.append(f"crosscheck: formula {formula} != oracle {truth} on n={g.n} {g.edges}")
    return errors


# Digests of reference outputs, pinned at the commit that added the
# benchmark.  The inputs are fixed cacti, independent of --seed.  A failure
# prints the new digest; pin it here only when an output change is intended.
PINS = {
    "inputs": "03737b7a96dea382",
    "formula": "f26d755156b5172a",
    "certificate": "1aed65e1a7bde809",
}


def _reference_cacti(cycle_counts: tuple[int, ...], per_size: int):
    return [cactus(c, s) for c in cycle_counts for s in range(per_size)]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def reference_digests(which: tuple[str, ...]) -> dict[str, str]:
    out = {}
    formula_graphs = _reference_cacti((30, 300), 4)
    certificate_graphs = _reference_cacti((30,), 6)
    if "inputs" in which:
        out["inputs"] = _digest([(g.n, g.edges) for g in formula_graphs + certificate_graphs])
    if "formula" in which:
        rows = []
        for g in formula_graphs:
            r, b = exact.mdim_exact(g), exact.bound_report(g)
            rows.append((r.l1, [(t.rt, t.max_term, t.needs_delta) for t in r.per_cycle],
                         r.delta, r.total, b.bound, b.attained))
        out["formula"] = _digest(rows)
    if "certificate" in which:
        rows = []
        for g in certificate_graphs:
            c = exact.build_min_generator(g)
            rows.append((c.vertices, c.sa, c.sb, c.sc, c.verified))
        out["certificate"] = _digest(rows)
    return out


def pin_check(which: tuple[str, ...]) -> list[str]:
    return [f"pin: {name} digest {value} != pinned {PINS[name]}"
            for name, value in reference_digests(which).items() if value != PINS[name]]


# ---- cactus-formula ----------------------------------------------------------

def cactus_formula(seed: int, work: Path, sizes: Sizes) -> Plan:
    files = []
    for i in range(sizes.formula_files):
        g = cactus(sizes.formula_cycles, derived_seed(seed, "formula", i))
        path = work / f"formula-{i}.txt"
        write_graph(path, g)
        files.append((path, g.n, g.m))
    first: dict[int, tuple] = {}

    def run(k):
        g = cli.parse_graph_file(str(files[k % len(files)][0]))
        return g.n, g.m, exact.mdim_exact(g), exact.bound_report(g)

    def check(k, out):
        n, m, r, b = out
        _, want_n, want_m = files[k % len(files)]
        terms = r.per_cycle
        if (n, m) != (want_n, want_m):
            return f"parsed n, m = {n}, {m}; wrote {want_n}, {want_m}"
        if any(t.max_term != max(3 - t.rt, 0) for t in terms) or r.delta != sum(t.needs_delta for t in terms):
            return "cycle terms disagree with rt"
        if r.total != r.l1 + sum(t.max_term for t in terms) + r.delta:
            return f"total {r.total} is not l1 + terms + delta"
        if b.bound != r.l1 + 2 * len(terms) or r.total > b.bound:
            return f"bound {b.bound} does not cover mdim {r.total}"
        if b.attained != (r.total == b.bound) or b.attained != all(t.rt == 1 for t in terms):
            return "attained flag disagrees with the formula"
        summary = (r, b)
        if first.setdefault(k % len(files), summary) != summary:
            return "repeated input gave a different result"
        return None

    return Plan(round_size=len(files), run=run, check=check, tail_percentile=75,
                gate=lambda: crosscheck(seed) + pin_check(("inputs", "formula")))


# ---- cactus-certify ----------------------------------------------------------

def cactus_certify(seed: int, cycles: int, count: int, round_size: int, tail_percentile: float) -> Plan:
    graphs, totals = [], []
    for i in range(count):
        g = cactus(cycles, derived_seed(seed, f"certify-{cycles}", i))
        graphs.append(g)
        totals.append(exact.mdim_exact(g).total)

    def run(k):
        return exact.build_min_generator(graphs[k % len(graphs)])

    def check(k, cert):
        g, total = graphs[k % len(graphs)], totals[k % len(graphs)]
        if cert.verified is not True:
            return "certificate not verified"
        if len(cert.vertices) != total:
            return f"certificate has {len(cert.vertices)} vertices, mdim_exact says {total}"
        if set(cert.sa) != {v for v in range(g.n) if g.degree(v) == 1}:
            return "sa is not the leaf set"
        parts = set(cert.sa).union(*cert.sb, *cert.sc)
        if tuple(sorted(parts)) != cert.vertices:
            return "sa, sb and sc do not make up the certificate"
        return None

    return Plan(round_size=round_size, run=run, check=check, tail_percentile=tail_percentile,
                gate=lambda: crosscheck(seed) + pin_check(("inputs", "certificate")))


# ---- campaign-general --------------------------------------------------------

def campaign_general(seed: int, work: Path, sizes: Sizes) -> Plan:
    # Each operation is a one-graph campaign whose n cycles through the
    # sizes, so every run has the same size mix: with n drawn per graph the
    # median moved by 2x between seeds, because the oracle's cost grows
    # about 2x per vertex.  Within one size the time jumps with mdim, so
    # the median graph must sit well inside one mdim class: n = 13 comes
    # four times, so that the median graph is an n = 13 graph, and about
    # 60% of those share mdim 7 (at n = 12 the split is near 50/50).
    path = work / "campaign.jsonl"
    first: dict[int, bytes] = {}

    def config(k, out_path):
        n = sizes.campaign_sizes[k % len(sizes.campaign_sizes)]
        return conjecture.CampaignConfig(count=1, output_path=str(out_path),
                                         seed=derived_seed(seed, "campaign", k),
                                         n_range=(n, n), density=0.4)

    def run(k):
        return conjecture.run_campaign(config(k, path))

    def check(k, summary):
        data = path.read_bytes()
        path.unlink()
        if k < len(sizes.campaign_sizes):
            first[k] = data
        errors = _campaign_errors(summary, data, 1) + _record_errors(
            json.loads(data), sizes.campaign_sizes[k % len(sizes.campaign_sizes)])
        return "; ".join(errors) or None

    def finish():
        errors = []
        again = work / "again.jsonl"
        for k, data in first.items():
            conjecture.run_campaign(config(k, again))
            if again.read_bytes() != data:
                errors.append(f"campaign: rerun of graph {k} wrote different bytes")
            again.unlink()
        lo, hi = min(sizes.campaign_sizes), max(sizes.campaign_sizes)
        multi = conjecture.CampaignConfig(count=len(sizes.campaign_sizes),
                                          output_path=str(work / "multi-a.jsonl"),
                                          seed=derived_seed(seed, "campaign-multi"),
                                          n_range=(lo, hi), density=0.4)
        repeat = replace(multi, output_path=str(work / "multi-b.jsonl"))
        summaries = [conjecture.run_campaign(multi), conjecture.run_campaign(repeat)]
        data = [Path(c.output_path).read_bytes() for c in (multi, repeat)]
        if data[0] != data[1]:
            errors.append("campaign: repeated multi-graph campaign wrote different bytes")
        for s in summaries:
            errors += _campaign_errors(s, data[0], multi.count)
        return errors

    return Plan(round_size=len(sizes.campaign_sizes), run=run, check=check, tail_percentile=95,
                finish=finish)


def _campaign_errors(summary, data: bytes, count: int) -> list[str]:
    errors = []
    if summary.count != count or len(data.splitlines()) != count:
        errors.append(f"campaign: expected {count} records, summary says {summary.count}")
    if summary.violations:
        errors.append(f"campaign: violations {summary.violations}")
    return errors


def _record_errors(rec: dict, n: int) -> list[str]:
    errors = []
    if rec["n"] != n or rec["cyclomatic"] != rec["m"] - rec["n"] + 1:
        errors.append(f"campaign record has n={rec['n']}, m={rec['m']}, c={rec['cyclomatic']}")
    if rec["bound"] != rec["l1"] + 2 * rec["cyclomatic"] or rec["gap"] != rec["bound"] - rec["mdim"]:
        errors.append("campaign record bound or gap is inconsistent")
    if rec["excluded"] != (rec["m"] == rec["n"] and rec["l1"] == 0):
        errors.append(f"campaign record excludes a graph that is not a bare cycle, or the reverse: {rec}")
    if not rec["holds"] and not rec["excluded"]:
        errors.append(f"campaign record is a violation: {rec}")
    return errors


# ---- cli-calls ---------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    exit_code: int
    expect: dict | None          # keys the JSON on stdout must hold, or None
    out_file: Path | None = None  # a file the call writes, compared to out_bytes
    out_bytes: bytes = b""


def cli_calls(seed: int, work: Path, sizes: Sizes, src: Path) -> Plan:
    env = package_env(src)
    rounds = [_cli_round(seed, r, work) for r in range(sizes.cli_rounds)]
    round_size = len(rounds[0])

    def run(k):
        call = rounds[(k // round_size) % len(rounds)][k % round_size]
        return subprocess.run([sys.executable, "-m", "mixedmetric", *call.argv], cwd=work,
                              env=env, capture_output=True, text=True, timeout=120)

    def check(k, proc):
        call = rounds[(k // round_size) % len(rounds)][k % round_size]
        written = b""
        if call.out_file is not None:
            written = call.out_file.read_bytes()
            call.out_file.unlink()
        verb = call.argv[0]
        if proc.returncode != call.exit_code:
            return f"{verb}: exit {proc.returncode}, expected {call.exit_code}: {proc.stderr[-300:]}"
        if "Traceback" in proc.stderr:
            return f"{verb}: traceback on stderr"
        if call.expect is None:
            return None if proc.stderr.startswith("error:") else f"{verb}: no error message"
        got = json.loads(proc.stdout)
        if any(got.get(key) != value for key, value in call.expect.items()):
            return f"{verb}: printed {got}, expected {call.expect}"
        if written != call.out_bytes:
            return f"{verb}: wrote different bytes than the in-process campaign"
        return None

    def probe():
        # Interpreter start alone, then with the package imported.
        bare, loaded = [], []
        for _ in range(5):
            bare.append(time_python("pass", env))
            loaded.append(time_python("import mixedmetric", env))
        bare.sort()
        loaded.sort()
        return {"cli.interpreter_ms": 1000 * bare[2],
                "cli.import_ms": 1000 * (loaded[2] - bare[2])}

    return Plan(round_size=round_size, run=run, check=check, tail_percentile=80,
                operation="cli_call", probe=probe)


def _cli_round(seed: int, r: int, work: Path) -> list[CliCall]:
    small = cactus(3, derived_seed(seed, "cli-cactus", r), lengths=(3, 6))
    general = conjecture.random_connected_graph(12, 26, derived_seed(seed, "cli-general", r))
    small_path, general_path, bad_path = (work / f"cli-{kind}-{r}.txt"
                                          for kind in ("cactus", "general", "malformed"))
    write_graph(small_path, small)
    write_graph(general_path, general)
    bad_path.write_text("# declares more edges than it lists\n4 3\n0 1\n1 2\n", encoding="utf-8")

    info = structure.classify(small)
    report = exact.mdim_exact(small)
    cert = exact.build_min_generator(small)
    bound = exact.bound_report(small)
    search = oracle.brute_force_mdim(general)
    campaign_seed = derived_seed(seed, "cli-campaign", r)
    expected_file = work / f"cli-expected-{r}.jsonl"
    expected_file.unlink(missing_ok=True)
    summary = conjecture.run_campaign(conjecture.CampaignConfig(
        count=5, output_path=str(expected_file), seed=campaign_seed))
    out_file = work / f"cli-campaign-{r}.jsonl"
    s, gp = str(small_path), str(general_path)
    return [
        CliCall(("classify", s, "--json"), 0, {"tag": info.tag.value, "cycle_count": info.cycle_count}),
        CliCall(("dim", s, "--json"), 0, {"l1": report.l1, "delta": report.delta, "total": report.total}),
        CliCall(("generator", s, "--json"), 0, {"set": list(cert.vertices), "verified": True}),
        CliCall(("verify", s, "--set", ",".join(map(str, cert.vertices)), "--json"), 0,
                {"is_generator": True, "failing_pair": None}),
        CliCall(("oracle", gp, "--json"), 0, {"total": search.value, "witness": list(search.witness)}),
        CliCall(("bounds", s, "--json"), 0, {"bound": bound.bound, "attained": bound.attained}),
        CliCall(("conjecture", "--count", "5", "--seed", str(campaign_seed), "--out", str(out_file)),
                0, summary.to_dict(), out_file, expected_file.read_bytes()),
        CliCall(("dim", str(bad_path)), 1, None),
    ]


def build(workload: str, seed: int, work: Path, sizes: Sizes, src: Path) -> Plan:
    if workload == "cactus-formula":
        return cactus_formula(seed, work, sizes)
    if workload == "cactus-certify-small":
        return cactus_certify(seed, sizes.certify_small_cycles, sizes.certify_small_graphs,
                              round_size=10, tail_percentile=95)
    if workload == "cactus-certify-large":
        return cactus_certify(seed, sizes.certify_large_cycles, sizes.certify_large_graphs,
                              round_size=1, tail_percentile=65)
    if workload == "campaign-general":
        return campaign_general(seed, work, sizes)
    return cli_calls(seed, work, sizes, src)
