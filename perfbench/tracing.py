"""Per-layer spans recorded from outside the package.

A traced run replaces each public function listed in LAYERS, in every
mixedmetric module namespace that holds it, with a wrapper that records a
span: name, start, end, parent span and the id of the graph being
processed.  Spans stay in memory until the run ends; self time and calls
per graph are derived from them afterwards.  The work counters (APSP cells,
profile cells, the oracle's witnesses) are noted after a call's span has
ended, so they cost nothing inside the spans, and keep no argument or
result alive but the oracle's small graphs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

# layer (module) -> public functions timed at its boundary.
LAYERS = {
    "cli": ("parse_graph_file",),
    "graph": ("build_graph", "graph_stats", "all_pairs_distances"),
    "structure": ("biconnected_blocks", "classify", "extract_cycles"),
    "exact": ("mdim_exact", "bound_report", "build_min_generator"),
    "oracle": ("is_mixed_generator", "brute_force_mdim"),
    "conjecture": ("random_connected_graph", "evaluate_conjecture", "run_campaign"),
}

PACKAGE = "mixedmetric"


class Tracer:
    """Wraps the package's public functions and records spans while installed."""

    def __init__(self):
        self.graph: int | None = None  # id of the graph being processed; None pauses tracing
        self.spans: list[list] = []    # [name, start_ns, end_ns, parent index, graph id]
        # Work counters, noted after each traced call's span has ended.
        self.cells = 0                 # all_pairs_distances: n * n
        self.profile_cells = 0         # is_mixed_generator: (n + m) * |S|
        self.column_ratios: list[float] = []  # is_mixed_generator: |S| / n
        # brute_force_mdim: (graph, witness), for subsets_tried after the run.
        # Its graphs are the oracle's small ones (n <= 14 in the campaign).
        self.searches: list[tuple[object, tuple[int, ...]]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        count = {"graph.all_pairs_distances": self._count_apsp,
                 "oracle.is_mixed_generator": self._count_profile,
                 "oracle.brute_force_mdim": self._count_search}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.graph is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.graph]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def _count_apsp(self, args, result) -> None:
        g = args[0]
        self.cells += g.n * g.n

    def _count_profile(self, args, result) -> None:
        g, used = args[0], len(set(args[1]))
        self.profile_cells += (g.n + g.m) * used
        self.column_ratios.append(used / g.n)

    def _count_search(self, args, result) -> None:
        self.searches.append((args[0], result.witness))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, graph in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "graph": graph}) + "\n")

    def metrics(self, graphs: int) -> dict[str, float]:
        """Per-layer metrics over `graphs` traced operations."""
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent, _ in self.spans:
            self_ns[name] = self_ns.get(name, 0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                # Parents precede their children in the list, so they are counted already.
                self_ns[self.spans[parent][0]] -= end - start
        out = {}
        for layer, names in LAYERS.items():
            for fn in names:
                name = f"{layer}.{fn}"
                out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / graphs
                out[f"{name}.calls_per_graph"] = calls.get(name, 0) / graphs
        ratios = self.column_ratios
        tried = [subsets_tried(g, witness) for g, witness in self.searches]
        out.update({
            "graph.all_pairs_distances.cells_computed": self.cells / graphs,
            "oracle.is_mixed_generator.profile_cells": self.profile_cells / graphs,
            "oracle.is_mixed_generator.used_column_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
            "oracle.brute_force_mdim.subsets_tried": sum(tried) / len(tried) if tried else 0.0,
            "oracle.brute_force_mdim.hit_ratio": len(tried) / sum(tried) if tried else 0.0,
        })
        return out


def subsets_tried(g, witness) -> int:
    """Candidate sets brute_force_mdim tests before it returns `witness`.

    The search forces the leaves, draws the rest from the other vertices in
    id order, tries cardinalities upward from max(leaves, 1) and, within
    one cardinality, combinations in lexicographic order; the witness is the
    first hit, so its rank in that order is the count.
    """
    leaves = {v for v in range(g.n) if len(g.adjacency[v]) == 1}
    candidates = [v for v in range(g.n) if v not in leaves]
    extra = sorted(set(witness) - leaves)
    forced, size, pool = len(leaves), len(extra), len(candidates)
    tried = sum(comb(pool, k - forced) for k in range(max(forced, 1), forced + size))
    position = {v: i for i, v in enumerate(candidates)}
    previous = -1
    for i, v in enumerate(extra):
        p = position[v]
        tried += sum(comb(pool - q - 1, size - i - 1) for q in range(previous + 1, p))
        previous = p
    return tried + 1
