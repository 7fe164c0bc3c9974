"""Mixed metric dimension of graphs with edge-disjoint cycles.

The library computes the exact mixed metric dimension of trees, unicyclic
graphs, and cacti from their block structure, constructs certified minimum
mixed metric generators, cross-validates everything against a definition-
level oracle, and probes the conjectured bound
mdim(G) <= L1(G) + 2 c(G) on random general graphs.

`import mixedmetric` loads no submodule: each public name and each
submodule is imported on first access (PEP 562), so a command-line call
pays only for the modules its verb runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    name: module
    for module, names in {
        "conjecture": ("CactusSpec", "CampaignConfig", "CampaignSummary", "ConjectureRecord",
                       "evaluate_conjecture", "random_cactus", "random_connected_graph",
                       "run_campaign"),
        "errors": ("CampaignFileError", "CycleExcludedError", "DisconnectedError",
                   "DuplicateEdgeError", "EmptySetError", "GraphBuildError",
                   "InfeasibleEdgeCountError", "InvalidSpecError", "InvariantError",
                   "MixedMetricError", "NotACactusError", "ParseError", "SelfLoopError",
                   "TooLargeError", "TooSmallError", "VertexOutOfRangeError"),
        "exact": ("BoundReport", "CycleTerm", "GeneratorCertificate", "MdimReport",
                  "bound_report", "build_min_generator", "mdim_exact"),
        "graph": ("Edge", "Element", "Graph", "GraphStats", "build_graph", "graph_stats"),
        "oracle": ("FailingPair", "SearchResult", "brute_force_mdim", "is_mixed_generator"),
        "structure": ("CycleInfo", "Decomposition", "GraphClass", "GraphClassTag",
                      "augment_for_triple", "classify", "decompose", "has_geodesic_triple"),
    }.items()
    for name in names
}
# __main__ is left out: importing it runs the command line.
_SUBMODULES = frozenset(_HOMES.values()) | {"cli"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
