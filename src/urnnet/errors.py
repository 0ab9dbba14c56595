"""Exception types shared across the package."""


class UrnnetError(Exception):
    """Base class for all package errors."""


class GraphError(UrnnetError):
    """Invalid graph input."""


class SelfLoopError(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"self-loop at vertex {vertex}")


class IndexOutOfRangeError(GraphError):
    def __init__(self, vertex, n):
        self.vertex = vertex
        self.n = n
        super().__init__(f"vertex index {vertex} outside [0, {n})")


class EmptyGraphError(GraphError):
    def __init__(self, msg="graph has no edges"):
        super().__init__(msg)


class NotConnectedError(GraphError):
    def __init__(self, msg="undirected graph is not connected"):
        super().__init__(msg)


class NotWeaklyConnectedError(GraphError):
    def __init__(self, msg="directed graph is not weakly connected"):
        super().__init__(msg)


class ZeroInDegreeError(GraphError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has in-degree 0")


class ConfigError(UrnnetError):
    """Invalid model configuration."""


class EigenFailure(UrnnetError):
    """Dense eigensolver did not converge."""


class LyapunovFailure(UrnnetError):
    """The sign iteration for the Lyapunov equation did not converge."""


class InconsistentDriftError(UrnnetError):
    """h(z) = 0 admits no solution; the drift assembly is broken."""


class NotApplicableError(UrnnetError):
    """A theorem-backed quantity was requested outside its hypotheses."""


class AssumptionViolatedError(UrnnetError):
    """Structural assumption (bipartite / diagonalizable / ...) fails."""


class NoBipartitionError(UrnnetError):
    """Partition metrics requested on a non-bipartite graph."""


class NonPositiveStatisticError(UrnnetError):
    """Log-log regression input hit zero or went negative."""


class NotACheckpointError(UrnnetError):
    """A statistic was requested at a time that is not on the snapshot schedule."""


class TooFewReplicasError(UrnnetError):
    """Covariance estimation needs at least two replicas."""
