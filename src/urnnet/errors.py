"""Exception types shared across the package."""


class UrnnetError(Exception):
    """Base class for all package errors."""


class GraphError(UrnnetError):
    """Invalid graph input; the message names the fault."""


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
