"""Closed-form predictions: drift fields, limit sets, regimes, covariances.

Every prediction is derived from one Problem(graph, config), which caches
the adjacency, spectrum, drift, classification and predicted limit so each
is computed once.
Everything uses the row-vector convention: the mean field is
h(z) = b + z K, states are rows, and K is the Jacobian. Zeros of h are the
candidate limits; the affine solution set intersected with [0,1]^N is the
limit manifold. Every drift is h(z) = b0 1 + z (lam T - I): the transfer matrix
T = P~ R is column stochastic and (b0, lam) is (0, 1) for Polya, (1, -1) for
Friedman. So the manifold passes through 1/2 1, and a basis row u_j of it
ranges over the parameter box +-1/(2 max_i |u_ji|).

The paper's theorems turn on one fact, Problem.walk_drift: K is the bare
graph walk -(I + A D^-1). It is their one case of a Friedman limit other
than 1/2 1, and the one model whose decay rates are the spectrum's of
I + A D^-1.

The stationary covariance of sqrt(t) (Z_t - 1/2 1) solves the Lyapunov
equation (K + I/2)^T Sigma + Sigma (K + I/2) = -Gamma_eff, where Gamma_eff
is the covariance of the martingale noise as it enters the recursion,
(1/4s) R^T R with the reinforcement matrix R = (eta I + kappa A) Omega^-1.
On a regular graph K and Gamma_eff are polynomials in the symmetric A D^-1
and commute, so with M = -(2K + I) one closed form covers every model:
Sigma = Gamma_eff M^-1, and in the critical regime (rho = 1/2) the
sqrt(t/log t)-scaled covariance SigmaTilde is Gamma_eff projected onto
ker M, the critical directions. The paper's two formulas,
(1/4s) [(2p+1) I + 2(1-p) A D^-1]^-1 and
(1/4s) (A D^-1)^2 [I + 2p A D^-1 + 2(1-p)(A D^-1)^2]^-1, are its self and
neighbour cases. On every non-regular or directed graph Sigma comes from
sigma_lyapunov's Newton sign iteration (Roberts 1980; Higham, Functions of
Matrices, ch. 5), which needs no eigenvectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import ModelConfig
from .errors import (
    AssumptionViolatedError,
    ConfigError,
    EigenFailure,
    InconsistentDriftError,
    LyapunovFailure,
    NotApplicableError,
)
from .graphs import GraphSpec, matrices
from .spectral import SpectralData, eigendecompose, nullspace

__all__ = [
    "Problem",
    "Params",
    "DriftModel",
    "LimitSet",
    "ClassificationReport",
    "FluctuationReport",
    "DecayPrediction",
    "drift_model",
    "stability",
    "limit_set",
    "classify",
    "fluctuation",
    "sigma_lyapunov",
    "noise_covariance",
    "decay_exponents",
]

_CRITICAL_TOL = 1e-9
_RESIDUAL_TOL = 1e-8
_NEAR_CRITICAL_BAND = 0.05
_SIGN_MAX_ITER = 50
# (eta, kappa): reinforce the urn itself, its neighbours, or both
_SWITCHES = {"self": (1, 0), "neighbour": (0, 1), "self_and_neighbour": (1, 1)}
_REINFORCED = {"polya": (0, 1), "friedman": (1, -1)}


@dataclass(frozen=True)
class DriftModel:
    """Affine mean field h(z) = b + z K; K doubles as the Jacobian."""

    b: np.ndarray
    K: np.ndarray

    def __call__(self, z) -> np.ndarray:
        return self.b + np.asarray(z) @ self.K

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Spectrum of K sorted by real, then imaginary part; computed once."""
        try:
            eig = np.linalg.eigvals(self.K)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(str(exc)) from exc
        return eig[np.lexsort((eig.imag, eig.real))]


@dataclass(frozen=True)
class LimitSet:
    """Affine solution set of h(z) = 0 intersected with [0,1]^N.

    Elements are particular + sum_k c_k basis[k], with particular = 1/2 1
    (see limit_set); basis rows are orthonormal.
    box[k] = (lo, hi) is the range of c_k keeping the point inside [0,1]^N
    (None when the ranges do not decouple across parameters).
    """

    kind: str  # unique_point | one_parameter | two_parameter | general
    particular: np.ndarray
    basis: np.ndarray
    box: Optional[np.ndarray] = None

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class ClassificationReport:
    """classify's theorem and what it predicts: limit 'point' (1/2 1, as the
    theorem states it), 'set' (the solution set of h(z) = 0) or None; sync
    'global' or 'partition' when the theorem says which urns synchronise."""

    applicable_theorem: str
    assumptions_checked: tuple  # ((name, bool), ...)
    limit: Optional[str]
    sync: Optional[str]


@dataclass(frozen=True)
class FluctuationReport:
    """Regime and covariances of fluctuation(); closed_form means a regular
    graph: Sigma/SigmaTilde from the commuting closed form."""

    rho: float
    regime: str  # sqrt_t | sqrt_t_over_log_t | not_applicable
    Gamma: np.ndarray
    Sigma: Optional[np.ndarray]
    SigmaTilde: Optional[np.ndarray]
    closed_form: bool
    near_critical: bool = False


@dataclass(frozen=True)
class DecayPrediction:
    """decay_exponents' rates: a contrast's mean decays like t^(-mean_exponent),
    its variance like t^(-variance_exponent), times log t if log_correction."""

    mean_exponent: float
    variance_exponent: float
    log_correction: bool


class Params(NamedTuple):
    """Switches eta/kappa, growth omega; s draws with Y white add b0 s + lam Y white balls."""

    eta: int
    kappa: int
    omega: np.ndarray
    b0: int
    lam: int


@dataclass(frozen=True, eq=False)
class Problem:
    """One model on one graph, and everything derived from the pair.

    Each derived object is computed on first use and cached, so every entry
    point reads the same adjacency, spectrum, drift and classification. The
    simulator reads only the O(n + edges) g.in_neighbours and params; the
    dense A, ADi and R are built for theory and spectral work alone.
    """

    g: GraphSpec
    cfg: ModelConfig

    def __post_init__(self):
        if len(self.cfg.T0) != self.g.n:
            raise ConfigError(f"config is for {len(self.cfg.T0)} urns, graph has {self.g.n}")

    @cached_property
    def deg(self) -> np.ndarray:
        """Degrees (in-degrees when directed) as floats; A / deg is column stochastic."""
        return self.g.in_neighbours[1].astype(float)

    @cached_property
    def A(self) -> np.ndarray:
        """Dense adjacency matrix (graphs.matrices); n x n, so never read by the simulator."""
        return matrices(self.g)

    @cached_property
    def ADi(self) -> np.ndarray:
        """The column-stochastic graph walk A D^-1."""
        return self.A / self.deg[None, :]

    @cached_property
    def params(self) -> Params:
        """eta/kappa per neighbourhood mode; omega_i = eta + kappa d_i, so
        1, d_i or d_i + 1; (b0, lam) per scheme.

        Degrees are in-degrees on directed graphs (reinforcement arrives from
        in-neighbours, one packet per incoming edge).
        """
        eta, kappa = _SWITCHES[self.cfg.neighbourhood]
        return Params(eta, kappa, eta + kappa * self.g.in_neighbours[1],
                      *_REINFORCED[self.cfg.scheme])

    @cached_property
    def R(self) -> np.ndarray:
        """The reinforcement matrix (eta I + kappa A) Omega^-1: entry (j, i)
        weighs urn j's draw in the update of urn i's fraction."""
        eta, kappa, omega, _, _ = self.params
        return (eta * np.eye(self.g.n) + kappa * self.A) / omega[None, :].astype(float)

    @property
    def Ptil(self) -> np.ndarray:
        """P~ = p I + (1-p) A D^-1; like transfer, uncached so no n x n copy outlives drift."""
        return self.cfg.p * np.eye(self.g.n) + (1.0 - self.cfg.p) * self.ADi

    @property
    def transfer(self) -> np.ndarray:
        """The column-stochastic T = P~ R; P~ itself under self-reinforcement."""
        return self.Ptil if self.cfg.neighbourhood == "self" else self.Ptil @ self.R

    @cached_property
    def walk_drift(self) -> bool:
        """Whether K is the bare graph walk -(I + A D^-1), bit for bit: Friedman
        ftsr at p = 0 (P~ = A D^-1) and ftnr at p = 1 (T = I R = A D^-1)."""
        return (self.cfg.code, self.cfg.p) in (("ftsr", 0.0), ("ftnr", 1.0))

    @cached_property
    def spectral(self) -> SpectralData:
        return eigendecompose(self)

    @cached_property
    def drift(self) -> DriftModel:
        return drift_model(self)

    @cached_property
    def classification(self) -> ClassificationReport:
        return classify(self)

    @cached_property
    def predicted_limit(self) -> Optional[LimitSet]:
        """The limit set the classification's limit names: None for none, the
        point 1/2 1 for 'point', limit_set(drift) for 'set'. Only that last
        case builds the drift and runs an SVD, on first read: BLAS and LAPACK
        work ahead of a verify's ensembles would add to its peak memory."""
        limit = self.classification.limit
        if limit == "set":
            return limit_set(self.drift)
        return None if limit is None else _limit(np.empty((0, self.g.n)))

    @cached_property
    def fluctuation(self) -> FluctuationReport:
        return fluctuation(self)

    @cached_property
    def decay(self) -> DecayPrediction:
        return decay_exponents(self)


def drift_model(problem: Problem) -> DriftModel:
    """h(z) = b + zK with b = b0 1 and K = lam T - I, T the transfer matrix."""
    params, n = problem.params, problem.g.n
    return DriftModel(b=np.full(n, float(params.b0)), K=params.lam * problem.transfer - np.eye(n))


def stability(dm: DriftModel):
    """Jacobian spectrum and the stability verdict (real parts <= 1e-9)."""
    return dm.eigenvalues, bool(np.max(dm.eigenvalues.real) <= 1e-9)


def _param_box(basis: np.ndarray) -> Optional[np.ndarray]:
    """Per-parameter ranges keeping 1/2 1 + c.basis inside [0,1]^N.

    Every coordinate starts at 1/2, so c_j ranges over +-1/(2 max_i |u_ji|).
    Exact when each coordinate is touched by at most one basis vector
    (always true for one-parameter families); otherwise returns None.
    """
    if np.any(np.sum(np.abs(basis) > 1e-12, axis=0) > 1):
        return None
    half_width = 0.5 / np.max(np.abs(basis), axis=1)
    return np.stack([-half_width, half_width], axis=1)


def limit_set(dm: DriftModel) -> LimitSet:
    """Solve b + zK = 0: the point 1/2 1 plus the left-null directions of K.

    Every model's h vanishes at 1/2 1 (T is column stochastic, so
    1/2 1 K = -b); InconsistentDriftError when the residual there is not
    below 1e-8, i.e. dm is no model's drift.
    """
    residual = np.max(np.abs(dm(np.full(dm.K.shape[0], 0.5))))
    if not residual < _RESIDUAL_TOL:
        raise InconsistentDriftError(f"1/2 is no zero of h (residual {residual:.2e})")
    return _limit(nullspace(dm.K))


def _limit(basis: np.ndarray) -> LimitSet:
    """The limit set 1/2 1 + span(basis), its kind named by its dimension."""
    kind = {0: "unique_point", 1: "one_parameter", 2: "two_parameter"}.get(
        basis.shape[0], "general")
    return LimitSet(kind=kind, particular=np.full(basis.shape[1], 0.5), basis=basis,
                    box=_param_box(basis))


def classify(problem: Problem) -> ClassificationReport:
    """The paper's theorem for the configuration, with the limit and sync it
    predicts, set by the branch that picks it, so no reader matches a label
    (Problem.predicted_limit gives the limit set). It builds no drift.

    A Friedman limit is the point 1/2 1 unless the drift is the graph walk
    and the walk alternates, across a bipartite graph or a source component
    that is no odd cycle; then it is the solution set of h(z) = 0 if T0 is
    uniform (and, directed, the spectrum diagonalizable). Polya needs an
    undirected graph, uniform T0, and p < 1 (self) or regularity (the other
    modes). 'unknown', with no prediction, where no theorem applies.
    """
    cfg, g = problem.cfg, problem.g
    neigh, p, friedman = cfg.neighbourhood, cfg.p, cfg.scheme == "friedman"
    bip = g.bipartition is not None
    regular = g.regular_degree is not None
    uniform = cfg.uniform_t0
    diag = not g.directed or problem.spectral.diagonalizable  # eigh: always, undirected
    checks = [("connected", True),  # parse_edge_list rejects a disconnected graph
              ("bipartite", bip), ("regular", regular), ("uniform_t0", uniform),
              ("diagonalizable", diag)]
    if g.directed:
        checks.append(("g1_odd_cycle", bool(g.g1_is_odd_cycle)))
    alternates = not g.g1_is_odd_cycle if g.directed else bip

    theorem, limit, sync = "unknown", None, None
    if problem.walk_drift and alternates:
        if uniform and diag:  # the directed theorem states no sync
            theorem, limit, sync = (("directed_general", "set", None) if g.directed else
                                    ("friedman_bipartite_partial_sync", "set", "partition"))
    elif friedman and not g.directed:
        theorem, limit = "friedman_unique", "point"
    elif friedman and (neigh != "neighbour" or p > 0.0):  # directed ftnr p = 0: none
        theorem, limit = "directed_friedman_unique", "point"
    elif not friedman and not g.directed and uniform and (
            p < 1.0 if neigh == "self" else regular):
        if neigh == "neighbour" and p == 0.0 and bip:
            theorem, limit, sync = "polya_bipartite_two_param", "set", "partition"
        else:
            theorem, limit, sync = "polya_regular_sync", "set", "global"
    return ClassificationReport(theorem, tuple(checks), limit, sync)


def noise_covariance(problem: Problem) -> np.ndarray:
    """Covariance of the noise term driving the recursion.

    The per-urn sampling noise has covariance Gamma = I/(4s) in the limit;
    it enters the state recursion through the reinforcement matrix problem.R,
    so the effective covariance is (1/4s) R^T R.
    """
    R = problem.R
    return R.T @ R / (4.0 * problem.cfg.s)


def sigma_lyapunov(problem: Problem) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation (numerical route).

    Newton sign iteration on (A, Q) = (S^T, G), S = K + I/2, with Frobenius
    scaling c: A <- (A/c + c A^-1)/2 -> -I, Q <- (Q/c + c A^-1 Q A^-T)/2 -> 2 Sigma.
    """
    if np.max(problem.drift.eigenvalues.real) + 0.5 >= -1e-12:
        raise NotApplicableError("drift is not strictly stable beyond 1/2; no sqrt(t) regime")
    A = problem.drift.K.T + 0.5 * np.eye(problem.g.n)
    Q = noise_covariance(problem)
    for _ in range(_SIGN_MAX_ITER):
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise LyapunovFailure(f"sign iteration hit a singular matrix: {exc}") from exc
        c = np.sqrt(np.linalg.norm(A) / np.linalg.norm(Ainv))
        A_next = 0.5 * (A / c + c * Ainv)
        Q = 0.5 * (Q / c + c * (Ainv @ Q @ Ainv.T))
        step = np.linalg.norm(A_next - A, 1) / np.linalg.norm(A_next, 1)
        A = A_next
        if step <= 1e-8:  # the error after this step is ~ step^2
            return 0.25 * (Q + Q.T)
    raise LyapunovFailure(f"sign iteration did not converge in {_SIGN_MAX_ITER} steps")


def fluctuation(problem: Problem) -> FluctuationReport:
    """Scaling regime and limit covariance around the 1/2 limit.

    Requires a Friedman model whose classified limit is the unique point
    1/2 1. rho is the smallest eigenvalue of -K; rho > 1/2 gives the
    sqrt(t) regime with covariance Sigma, rho = 1/2 (within 1e-9) the
    sqrt(t/log t) regime with SigmaTilde, and rho < 1/2 no stated scaling.
    Both come from the module's closed form on a regular graph; elsewhere
    Sigma comes from sigma_lyapunov and SigmaTilde is None.
    """
    cls, n = problem.classification, problem.g.n
    if cls.limit != "point":
        raise NotApplicableError(
            f"limit is not the unique point 1/2 (classified {cls.applicable_theorem})")

    rho = float(-np.max(problem.drift.eigenvalues.real))
    Gamma = np.eye(n) / (4.0 * problem.cfg.s)
    # K and Gamma_eff are symmetric polynomials in A D^-1, and so commute,
    # exactly when the (connected, undirected) graph is regular
    closed = problem.g.regular_degree is not None
    if closed:
        M = -(2 * problem.drift.K + np.eye(n))

    if rho > 0.5 + _CRITICAL_TOL:
        if closed:
            Sigma = noise_covariance(problem) @ np.linalg.inv(M)
            Sigma = 0.5 * (Sigma + Sigma.T)
        else:
            Sigma = sigma_lyapunov(problem)
        return FluctuationReport(
            rho=rho, regime="sqrt_t", Gamma=Gamma, Sigma=Sigma, SigmaTilde=None,
            closed_form=closed, near_critical=bool(rho < 0.5 + _NEAR_CRITICAL_BAND))

    if abs(rho - 0.5) <= _CRITICAL_TOL:
        tilde = None
        if closed:
            mu, U = np.linalg.eigh(M)
            P = U[:, np.abs(mu) < 1e-9]  # ker M: the critical directions
            tilde = P @ (P.T @ noise_covariance(problem) @ P) @ P.T
        return FluctuationReport(
            rho=rho, regime="sqrt_t_over_log_t", Gamma=Gamma, Sigma=None,
            SigmaTilde=tilde, closed_form=closed)

    return FluctuationReport(rho=rho, regime="not_applicable", Gamma=Gamma,
                             Sigma=None, SigmaTilde=None, closed_form=False)


def decay_exponents(problem: Problem) -> DecayPrediction:
    """The one rule for the paper's decay rates of partition contrasts, read
    from the spectrum lambda of I + A D^-1 (Problem.decay caches them):
    AssumptionViolatedError if I + A D^-1 is defective or theta undefined,
    then NotApplicableError unless the drift is that graph walk, else the
    mean exponent theta and the variance exponent min(lambda_0 + lambda_1, 1),
    with a log factor where that sum is 1. The spectrum is then real and
    ascending, so lambda_0 + lambda_1 is the least pair sum but the zero-zero one.
    """
    sd = problem.spectral
    if not sd.diagonalizable:
        raise AssumptionViolatedError("matrix is not diagonalizable")
    # eigendecompose sets theta only on a real spectrum whose first eigenvalue is zero
    if sd.theta is None:
        raise AssumptionViolatedError(
            "theta is undefined: I + A D^-1 needs a real spectrum with a zero eigenvalue")
    if not problem.walk_drift:
        raise NotApplicableError("the drift is not the graph walk -(I + A D^-1)")
    minsum = float(sd.eigenvalues[0] + sd.eigenvalues[1])
    return DecayPrediction(
        mean_exponent=float(sd.theta),
        variance_exponent=float(min(minsum, 1.0)),
        log_correction=bool(abs(minsum - 1.0) < 1e-9),
    )
