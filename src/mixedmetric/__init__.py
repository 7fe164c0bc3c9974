"""Mixed metric dimension of graphs with edge-disjoint cycles.

The library computes the exact mixed metric dimension of trees, unicyclic
graphs, and cacti from their block structure, constructs certified minimum
mixed metric generators, cross-validates everything against a definition-
level oracle, and probes the conjectured bound
mdim(G) <= L1(G) + 2 c(G) on random general graphs.
"""

from .conjecture import (
    CactusSpec,
    CampaignConfig,
    CampaignSummary,
    ConjectureRecord,
    evaluate_conjecture,
    random_cactus,
    random_connected_graph,
    run_campaign,
)
from .errors import (
    CampaignFileError,
    CycleExcludedError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptySetError,
    GraphBuildError,
    InfeasibleEdgeCountError,
    InvalidSpecError,
    InvariantError,
    MixedMetricError,
    NotACactusError,
    ParseError,
    SelfLoopError,
    TooLargeError,
    TooSmallError,
    VertexOutOfRangeError,
)
from .exact import (
    BoundReport,
    CycleTerm,
    GeneratorCertificate,
    MdimReport,
    bound_report,
    build_min_generator,
    mdim_exact,
)
from .graph import (
    Edge,
    Element,
    Graph,
    GraphStats,
    build_graph,
    graph_stats,
)
from .oracle import (
    FailingPair,
    SearchResult,
    brute_force_mdim,
    element_order,
    forced_vertices,
    is_mixed_generator,
)
from .structure import (
    CycleInfo,
    GraphClass,
    GraphClassTag,
    augment_for_triple,
    biconnected_blocks,
    classify,
    extract_cycles,
    has_geodesic_triple,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CactusSpec", "CampaignConfig", "CampaignFileError", "CampaignSummary",
    "ConjectureRecord", "CycleExcludedError", "CycleInfo", "CycleTerm",
    "DisconnectedError", "DuplicateEdgeError", "Edge", "Element", "EmptySetError",
    "FailingPair", "GeneratorCertificate", "Graph", "GraphBuildError", "GraphClass",
    "GraphClassTag", "GraphStats", "InfeasibleEdgeCountError", "InvalidSpecError",
    "InvariantError", "MdimReport", "MixedMetricError", "NotACactusError", "ParseError",
    "SearchResult", "SelfLoopError", "TooLargeError", "TooSmallError",
    "VertexOutOfRangeError", "augment_for_triple", "biconnected_blocks", "bound_report",
    "brute_force_mdim", "build_graph", "build_min_generator", "classify", "element_order",
    "evaluate_conjecture", "extract_cycles", "forced_vertices", "graph_stats",
    "has_geodesic_triple", "is_mixed_generator", "mdim_exact", "random_cactus",
    "random_connected_graph", "run_campaign",
]
