"""Exception types raised across the package."""


class MixedMetricError(Exception):
    """Base class for every error raised by this package."""


class GraphBuildError(MixedMetricError, ValueError):
    """Invalid input to graph construction."""


class TooSmallError(GraphBuildError):
    """Fewer than two vertices requested."""


class SelfLoopError(GraphBuildError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphBuildError):
    """The same unordered edge appears twice."""


class VertexOutOfRangeError(GraphBuildError):
    """An edge endpoint is outside [0, n)."""


class DisconnectedError(GraphBuildError):
    """The edge list does not describe a connected graph."""


class NotACactusError(MixedMetricError):
    """The graph has a block that is neither an edge nor a cycle."""


class CycleExcludedError(MixedMetricError):
    """The bound statement excludes a graph that is exactly a cycle."""


class EmptySetError(MixedMetricError, ValueError):
    """A generator candidate set must be nonempty."""


class TooLargeError(MixedMetricError):
    """The graph exceeds the exhaustive-search size cap."""


class InvalidSpecError(MixedMetricError, ValueError):
    """A random-graph specification is contradictory or degenerate."""


class InfeasibleEdgeCountError(MixedMetricError, ValueError):
    """Requested edge count is outside [n - 1, n(n-1)/2]."""


class InvariantError(MixedMetricError):
    """An internal consistency check failed: a bug, never bad input."""


class CampaignFileError(MixedMetricError, ValueError):
    """A campaign file holds a line that is not a complete record."""


class ParseError(MixedMetricError, ValueError):
    """A graph file does not match the edge-list format."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
