"""Randomized probe of the leaf-plus-cyclomatic upper bound on general graphs.

The bound mdim(G) <= L1(G) + 2 c(G) is a theorem on cacti and conjectured
for every connected graph other than the bare cycle.  This module grows
seeded random cacti and connected graphs, evaluates the bound with
the formula (cactus inputs) or the exact oracle (everything else),
and streams the verdicts to an append-only JSONL campaign file.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import (
    CampaignFileError,
    InfeasibleEdgeCountError,
    InvalidSpecError,
    InvariantError,
    TooLargeError,
    TooSmallError,
)
from .exact import mdim_exact
from .graph import Graph, build_graph
from .oracle import brute_force_mdim
from .structure import Decomposition, GraphClassTag, decompose


class CactusSpec(NamedTuple):
    """Growth recipe for a random cactus: cycles and pendant edges."""

    cycle_count: int
    cycle_length_range: tuple[int, int]
    extra_tree_edges: int
    seed: int


class ConjectureRecord(NamedTuple):
    """Verdict of the bound mdim <= l1 + 2 * cyclomatic on one graph.

    The bare cycle C_n is outside the conjecture's scope and is tagged
    excluded instead of counting as a violation.
    """

    graph_id: str
    n: int
    m: int
    l1: int
    cyclomatic: int
    mdim: int
    mdim_source: str
    bound: int
    holds: bool
    gap: int
    excluded: bool


@dataclass(frozen=True)
class CampaignConfig:
    """Settings for a seeded campaign; identical configs replay identically."""

    count: int
    output_path: str
    seed: int = 0
    n_range: tuple[int, int] = (4, 10)
    m_strategy: str = "density"  # "density" or "cactus", which takes no density or fixed_m
    density: float = 0.4
    fixed_m: int | None = None  # when set, replaces the density's edge count
    max_n: int = 16


class CampaignSummary(NamedTuple):
    count: int
    holds: int
    excluded: int
    min_gap: int | None
    violations: tuple[ConjectureRecord, ...]

    def to_dict(self) -> dict:
        return {**self._asdict(), "violations": [r._asdict() for r in self.violations]}


def _prufer_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # Decoding a uniform random length-(n-2) sequence yields a uniform
    # labeled tree.  For n == 2 the sequence is empty and draws nothing.
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_cactus(spec: CactusSpec) -> Graph:
    """Grow a random cactus by attaching cycles and pendant edges.

    Each cycle of random length in range attaches through one uniformly
    random existing vertex, so cycles stay edge disjoint by construction;
    each pendant edge hangs a fresh leaf on a random existing vertex.
    """
    lo, hi = spec.cycle_length_range
    if spec.cycle_count < 0 or spec.extra_tree_edges < 0:
        raise InvalidSpecError("counts must be nonnegative")
    if spec.cycle_count > 0 and not 3 <= lo <= hi:
        raise InvalidSpecError(f"cycle lengths must satisfy 3 <= lo <= hi, got [{lo}, {hi}]")
    if spec.cycle_count == 0 and spec.extra_tree_edges == 0:
        raise InvalidSpecError("a single vertex is not a graph we analyze")

    rng = random.Random(spec.seed)
    ops = ["cycle"] * spec.cycle_count + ["leaf"] * spec.extra_tree_edges
    rng.shuffle(ops)
    n = 1
    edges: list[tuple[int, int]] = []
    for op in ops:
        attach = rng.randrange(n)
        if op == "leaf":
            edges.append((attach, n))
            n += 1
        else:
            length = rng.randint(lo, hi)
            ring = [attach] + list(range(n, n + length - 1))
            n += length - 1
            edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
    g = build_graph(n, edges)
    # Drop the raw edge list before decomposing, which sets this function's
    # peak memory: at n = 1.65e4 the list holds about 1.4 MB.
    del edges
    d = decompose(g)
    if d.cycles is None or len(d.cycles) != spec.cycle_count:
        info = d.graph_class
        raise InvariantError(
            f"grew a {info.tag.value} with {info.cycle_count} cycles from {spec}"
        )
    return g


def random_connected_graph(n: int, m: int, seed: int) -> Graph:
    """Random spanning tree plus m - n + 1 distinct random chords.

    The spanning tree is a uniform random labeled tree, deterministic in
    seed, so m = n - 1 draws a uniform random tree.
    """
    if n < 2:
        raise TooSmallError(f"need at least 2 vertices, got {n}")
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise InfeasibleEdgeCountError(
            f"m = {m} outside [{n - 1}, {n * (n - 1) // 2}] for n = {n}"
        )
    rng = random.Random(seed)
    tree = _prufer_edges(n, rng)
    # The chords are a sample of the non-edges in lexicographic order.
    # random.sample reads only a population's length and items, so sampling
    # a range of indices draws the same indices without listing n^2 / 2
    # pairs.  Pairs (u, v), u < v, are ranked lexicographically, u's from
    # offset[u] on; non-edge j has rank j plus the number of tree ranks it
    # passes, which are the i-th smallest ones r with r - i <= j.
    offset = [u * (2 * n - u - 1) // 2 for u in range(n)]
    tree_ranks = sorted(offset[min(e)] + max(e) - min(e) - 1 for e in tree)
    below = [r - i for i, r in enumerate(tree_ranks)]
    chords = []
    for j in rng.sample(range(n * (n - 1) // 2 - (n - 1)), m - (n - 1)):
        rank = j + bisect_right(below, j)
        u = bisect_right(offset, rank) - 1
        chords.append((u, u + 1 + rank - offset[u]))
    return build_graph(n, tree + chords)


def _graph_digest(g: Graph) -> str:
    payload = f"{g.n}|" + ";".join(f"{u},{v}" for u, v in g.edges)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def evaluate_conjecture(g: Graph, max_n: int = 16) -> ConjectureRecord:
    """Check mdim <= l1 + 2 * cyclomatic on one graph.

    Cactus-classified inputs use the exact formula, everything else the
    oracle's exact search (TooLargeError past max_n).
    """
    d = decompose(g)
    if d.cycles is not None:
        mdim = mdim_exact(g).total
    else:
        mdim = brute_force_mdim(g, max_n=max_n).value
    return _record(g, d, mdim)


def _record(g: Graph, d: Decomposition, mdim: int) -> ConjectureRecord:
    """The record of g given its decomposition and dimension, for writer and resume check."""
    stats = d.stats
    bound = stats.l1 + 2 * stats.cyclomatic
    return ConjectureRecord(
        graph_id=_graph_digest(g),
        n=g.n,
        m=g.m,
        l1=stats.l1,
        cyclomatic=stats.cyclomatic,
        mdim=mdim,
        # The solver evaluate_conjecture picks for this decomposition.
        mdim_source="formula" if d.cycles is not None else "oracle",
        bound=bound,
        holds=mdim <= bound,
        gap=bound - mdim,
        excluded=d.graph_class.tag is GraphClassTag.CYCLE,
    )


def _campaign_graph(config: CampaignConfig, index: int) -> Graph:
    rng = random.Random(f"{config.seed}:{index}")
    lo, hi = config.n_range
    n = rng.randint(lo, hi)
    child_seed = rng.randrange(2**62)
    if config.m_strategy == "cactus":
        return random_cactus(CactusSpec(
            cycle_count=rng.randint(1, 3),
            cycle_length_range=(3, max(3, min(6, n - 1))),
            extra_tree_edges=rng.randint(0, 3),
            seed=child_seed,
        ))
    max_m = n * (n - 1) // 2
    wanted = round(config.density * max_m) if config.fixed_m is None else config.fixed_m
    m = min(max(wanted, n - 1), max_m)
    # A cactus has at most n - 1 + (n - 1) // 2 edges, so past that the graph
    # would go to the oracle, which refuses n > max_n.  Refuse it before
    # random_connected_graph builds it.
    if n > config.max_n and m > n - 1 + (n - 1) // 2:
        raise TooLargeError(f"n = {n} exceeds the search cap {config.max_n}")
    return random_connected_graph(n, m, child_seed)


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Stream one ConjectureRecord per generated graph to a JSONL file.

    The file is append-only: rerunning an identical config replays the
    same byte stream, and a partially written file resumes where the seed
    sequence left off.  The summary aggregates every record in the file.
    A line that is not, byte for byte, the line this version writes for
    the graph at that index given the line's own mdim, such as a last line
    cut short, a record written under another seed or an edited record,
    raises CampaignFileError before anything is appended.  A config that
    cannot generate its graphs, or sets a field its strategy ignores,
    raises InvalidSpecError or TooSmallError before the file is opened.
    """
    if config.m_strategy not in ("density", "cactus"):
        raise InvalidSpecError(f"unknown m_strategy {config.m_strategy!r}")
    # Written so that NaN fails it too.
    if not 0 <= config.density <= 1:
        raise InvalidSpecError(f"density must be in [0, 1], got {config.density}")
    unread = config.fixed_m is not None or config.density != CampaignConfig.density
    if config.m_strategy == "cactus" and unread:
        raise InvalidSpecError("the cactus strategy reads neither fixed_m nor density")
    lo, hi = config.n_range
    if lo > hi:
        raise InvalidSpecError(f"n_range must satisfy lo <= hi, got ({lo}, {hi})")
    # Under "cactus" the n range sets only the longest cycle.
    if config.m_strategy != "cactus" and lo < 2:
        raise TooSmallError(f"need at least 2 vertices, got {lo}")
    path = Path(config.output_path)
    records = _read_campaign(path, config) if path.exists() else []
    with path.open("ab") as fh:
        for index in range(len(records), config.count):
            record = evaluate_conjecture(_campaign_graph(config, index), config.max_n)
            fh.write(_line(record))
            records.append(record)
    live = [r for r in records if not r.excluded]
    return CampaignSummary(
        count=len(records),
        holds=sum(r.holds for r in records),
        excluded=sum(r.excluded for r in records),
        min_gap=min((r.gap for r in live), default=None),
        violations=tuple(r for r in live if not r.holds),
    )


def _line(record: ConjectureRecord) -> bytes:
    """The one serialization of a record: the writer's line and the resume check's."""
    return json.dumps(record._asdict(), sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _read_campaign(path: Path, config: CampaignConfig) -> list[ConjectureRecord]:
    records = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                # A line without its newline was cut short mid-write.
                if not raw.endswith(b"\n"):
                    raise ValueError("no line end")
                # UnicodeDecodeError is a ValueError too, and deeply nested
                # JSON ends in a RecursionError.
                record = ConjectureRecord(**json.loads(raw.decode("utf-8")))
                # mdim is the one field taken from the file: from 4.0 or
                # true, _record would build a line with 4.0 or true in it.
                if type(record.mdim) is not int:
                    raise TypeError("mdim is not an integer")
            except (ValueError, TypeError, RecursionError):
                raise CampaignFileError(
                    f"{path}: line {lineno} is not a complete campaign record"
                ) from None
            g = _campaign_graph(config, len(records))
            # Only mdim is taken on trust: checking it would mean solving the
            # graph again.  Every other byte must be the writer's.
            expected = _record(g, decompose(g), record.mdim)
            if record.graph_id != expected.graph_id:
                raise CampaignFileError(
                    f"{path}: line {lineno} holds a graph this config does not generate "
                    "there (another seed, n range or strategy?)"
                )
            if raw != _line(expected):
                raise CampaignFileError(
                    f"{path}: line {lineno} holds a record that contradicts its graph or itself"
                )
            records.append(record)
    return records
