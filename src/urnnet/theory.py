"""Closed-form predictions: drift fields, limit sets, regimes, covariances.

Every prediction is derived from one Problem(graph, config), which caches
the adjacency, spectrum, drift and classification so each is computed once.
Everything uses the row-vector convention: the mean field is
h(z) = b + z K, states are rows, and K is the Jacobian. Zeros of h are the
candidate limits; the affine solution set intersected with [0,1]^N is the
limit manifold.

The stationary covariance of sqrt(t) (Z_t - 1/2 1) solves the Lyapunov
equation (K + I/2)^T Sigma + Sigma (K + I/2) = -Gamma_eff, where Gamma_eff
is the covariance of the martingale noise as it enters the recursion,
(1/4s) * Mrec^T Mrec with Mrec = (eta I + kappa A) Omega^-1. On regular
graphs (A D^-1 symmetric) this has explicit closed forms:

    self-reinforcement:       Sigma = (1/4s) [(2p+1) I + 2(1-p) A D^-1]^-1
    neighbour-reinforcement:  Sigma = (1/4s) (A D^-1)^2 [I + 2p A D^-1 + 2(1-p)(A D^-1)^2]^-1

both of which the numerical solver and direct simulation reproduce. In the
critical regime (rho = 1/2) the sqrt(t/log t)-scaled covariance is
(1/4s) U B U^-1 with B selecting the critical eigendirections.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .dynamics import ModelConfig
from .errors import (
    AssumptionViolatedError,
    ConfigError,
    EigenFailure,
    InconsistentDriftError,
    NotApplicableError,
)
from .graphs import GraphAnalysis, GraphSpec, analyze_graph, in_neighbours, matrices
from .spectral import SpectralData, ZERO_EIG_TOL, eigendecompose, nullspace

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

THEOREMS = (
    "friedman_unique",
    "friedman_bipartite_partial_sync",
    "polya_regular_sync",
    "polya_bipartite_two_param",
    "directed_friedman_unique",
    "directed_general",
    "unknown",
)

_CRITICAL_TOL = 1e-9
_NEAR_CRITICAL_BAND = 0.05


@dataclass(frozen=True)
class DriftModel:
    """Affine mean field h(z) = b + z K; K doubles as the Jacobian."""

    b: np.ndarray
    K: np.ndarray

    def __call__(self, z) -> np.ndarray:
        return self.b + np.asarray(z) @ self.K

    @property
    def jacobian(self) -> np.ndarray:
        return self.K


@dataclass(frozen=True)
class LimitSet:
    """Affine solution set of h(z) = 0 intersected with [0,1]^N.

    Elements are particular + sum_k c_k basis[k]; basis rows are orthonormal.
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

    def point(self, coeffs) -> np.ndarray:
        coeffs = np.atleast_1d(np.asarray(coeffs, float))
        return self.particular + coeffs @ self.basis


@dataclass(frozen=True)
class ClassificationReport:
    applicable_theorem: str
    predicted_limit: Optional[LimitSet]
    assumptions_checked: tuple  # ((name, bool), ...)


@dataclass(frozen=True)
class FluctuationReport:
    rho: float
    regime: str  # sqrt_t | sqrt_t_over_log_t | not_applicable
    Gamma: np.ndarray
    Sigma: Optional[np.ndarray]
    SigmaTilde: Optional[np.ndarray]
    closed_form: bool
    near_critical: bool = False


@dataclass(frozen=True)
class DecayPrediction:
    mean_exponent: float
    variance_exponent: float
    log_correction: bool


class Params(NamedTuple):
    """Reinforcement switches eta/kappa and per-urn total growth omega."""

    eta: int
    kappa: int
    omega: np.ndarray


@dataclass(frozen=True, eq=False)
class Problem:
    """One model on one graph, and everything derived from the pair.

    Each derived object is computed on first use and cached, so every entry
    point reads the same adjacency, spectrum, drift and classification. The
    simulator reads only the O(n + edges) members (in_neighbours, params);
    the dense A is built for theory and spectral work alone.
    """

    g: GraphSpec
    cfg: ModelConfig

    def __post_init__(self):
        if len(self.cfg.T0) != self.g.n:
            raise ConfigError(f"config is for {len(self.cfg.T0)} urns, graph has {self.g.n}")

    @cached_property
    def in_neighbours(self):
        """(flat, deg) in-neighbour lists; see graphs.in_neighbours."""
        return in_neighbours(self.g)

    @cached_property
    def deg(self) -> np.ndarray:
        """Degrees (in-degrees when directed) as floats; A / deg is column stochastic."""
        return self.in_neighbours[1].astype(float)

    @cached_property
    def A(self) -> np.ndarray:
        """Dense adjacency matrix (graphs.matrices); n x n, so never read by the simulator."""
        return matrices(self.g)

    @cached_property
    def params(self) -> Params:
        """eta/kappa per neighbourhood mode; omega_i in {1, d_i, d_i + 1}.

        Degrees are in-degrees on directed graphs (reinforcement arrives from
        in-neighbours, one packet per incoming edge).
        """
        deg = self.in_neighbours[1]
        if self.cfg.neighbourhood == "self":
            return Params(1, 0, np.ones(self.g.n, np.int64))
        if self.cfg.neighbourhood == "neighbour":
            return Params(0, 1, deg)
        return Params(1, 1, deg + 1)

    @cached_property
    def analysis(self) -> GraphAnalysis:
        return analyze_graph(self.g)

    @cached_property
    def spectral(self) -> SpectralData:
        return eigendecompose(self.A, self.deg, self.g.directed)

    @cached_property
    def drift(self) -> DriftModel:
        return drift_model(self)

    @cached_property
    def classification(self) -> ClassificationReport:
        return classify(self)

    @cached_property
    def fluctuation(self) -> FluctuationReport:
        return fluctuation(self)


def drift_model(problem: Problem) -> DriftModel:
    """Assemble h(z) = b + zK for the six scheme/neighbourhood cases.

    Directed graphs enter through the in-degrees, which is what problem.deg
    holds.
    """
    cfg, A, deg = problem.cfg, problem.A, problem.deg
    n = problem.g.n
    I = np.eye(n)
    ADi = A / deg[None, :]
    Ptil = cfg.p * I + (1.0 - cfg.p) * ADi
    if cfg.neighbourhood == "self":
        T = Ptil
    elif cfg.neighbourhood == "neighbour":
        T = Ptil @ ADi
    else:
        T = Ptil @ ((A + I) / (deg + 1.0)[None, :])  # (A+I)(I+D)^-1, column stochastic

    if cfg.scheme == "polya":
        return DriftModel(b=np.zeros(n), K=T - I)
    return DriftModel(b=np.ones(n), K=-(T + I))


def stability(dm: DriftModel):
    """Jacobian spectrum and the stability verdict (real parts <= 1e-9)."""
    try:
        eig = np.linalg.eigvals(dm.K)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    eig = eig[np.lexsort((eig.imag, eig.real))]
    return eig, bool(np.max(eig.real) <= 1e-9)


def _param_box(particular: np.ndarray, basis: np.ndarray) -> Optional[np.ndarray]:
    """Per-parameter ranges keeping particular + c.basis inside [0,1]^N.

    Exact when each coordinate is touched by at most one basis vector
    (always true for one-parameter families); otherwise returns None.
    """
    k = basis.shape[0]
    if k == 0:
        return np.zeros((0, 2))
    if k > 1:
        support_counts = np.sum(np.abs(basis) > 1e-12, axis=0)
        if np.any(support_counts > 1):
            return None
    box = np.empty((k, 2))
    for j in range(k):
        lo, hi = -np.inf, np.inf
        for i in range(basis.shape[1]):
            u = basis[j, i]
            if abs(u) <= 1e-12:
                continue
            a = (0.0 - particular[i]) / u
            bnd = (1.0 - particular[i]) / u
            lo = max(lo, min(a, bnd))
            hi = min(hi, max(a, bnd))
        box[j] = (lo, hi)
    return box


def limit_set(dm: DriftModel, tol: float = 1e-8) -> LimitSet:
    """Solve b + zK = 0: particular solution plus left-null directions of K."""
    n = dm.K.shape[0]
    half = np.full(n, 0.5)
    if np.max(np.abs(dm(half))) < tol:
        particular = half
    else:
        particular, *_ = np.linalg.lstsq(dm.K.T, -dm.b, rcond=None)
        if np.max(np.abs(dm(particular))) > tol:
            raise InconsistentDriftError(
                f"no solution of h(z)=0 (residual {np.max(np.abs(dm(particular))):.2e})")
    basis = np.real_if_close(nullspace(dm.K))
    if np.iscomplexobj(basis):
        raise InconsistentDriftError("complex null directions for a real drift")
    kind = {0: "unique_point", 1: "one_parameter", 2: "two_parameter"}.get(
        basis.shape[0], "general")
    return LimitSet(kind=kind, particular=particular, basis=basis,
                    box=_param_box(particular, basis))


def classify(problem: Problem) -> ClassificationReport:
    """Match the configuration against the convergence theorems, in order.

    Reports the first theorem whose hypotheses all hold, together with the
    predicted limit set; reports 'unknown' (and no prediction) when none
    applies.
    """
    cfg, g, ga, sd = problem.cfg, problem.g, problem.analysis, problem.spectral
    p = cfg.p
    bip = ga.bipartition is not None
    regular = ga.regular_degree is not None
    uniform = cfg.uniform_t0
    diag = sd.diagonalizable
    checks = [
        ("connected", ga.connected),
        ("bipartite", bip),
        ("regular", regular),
        ("uniform_t0", uniform),
        ("diagonalizable", diag),
    ]
    if g.directed:
        checks.append(("g1_odd_cycle", bool(ga.g1_is_odd_cycle)))
    checks = tuple(checks)

    def report(theorem, with_limit=True):
        limit = limit_set(problem.drift) if with_limit else None
        return ClassificationReport(theorem, limit, checks)

    neigh = cfg.neighbourhood
    if not g.directed and cfg.is_friedman:
        if neigh == "self" and (p > 0.0 or not bip):
            return report("friedman_unique")
        if neigh == "neighbour" and (p < 1.0 or not bip):
            return report("friedman_unique")
        if neigh == "self_and_neighbour":
            return report("friedman_unique")
        # remaining: FTSR p=0 or FTNR p=1 on a bipartite graph
        if uniform and diag:
            return report("friedman_bipartite_partial_sync")
        return report("unknown", with_limit=False)

    if not g.directed and not cfg.is_friedman:
        if neigh == "self" and p < 1.0:
            if (regular and uniform) or (uniform and diag):
                return report("polya_regular_sync")
        elif neigh == "neighbour" and regular and uniform:
            if p > 0.0 or not bip:
                return report("polya_regular_sync")
            if bip:
                return report("polya_bipartite_two_param")
        elif neigh == "self_and_neighbour" and regular and uniform:
            return report("polya_regular_sync")
        return report("unknown", with_limit=False)

    # directed graphs: Friedman only
    if cfg.is_friedman:
        odd = bool(ga.g1_is_odd_cycle)
        if neigh == "self" and (p > 0.0 or odd):
            return report("directed_friedman_unique")
        if neigh == "neighbour" and (0.0 < p < 1.0 or (p == 1.0 and odd)):
            return report("directed_friedman_unique")
        if neigh == "self_and_neighbour":
            return report("directed_friedman_unique")
        residual_case = (neigh == "self" and p == 0.0) or (neigh == "neighbour" and p == 1.0)
        if residual_case and uniform and diag:
            # non-cycle leading component: the limit manifold is still the
            # solution set of h(z)=0, reached along the zero eigendirection
            return report("directed_general")
    return report("unknown", with_limit=False)


def noise_covariance(problem: Problem) -> np.ndarray:
    """Covariance of the noise term driving the recursion.

    The per-urn sampling noise has covariance Gamma = I/(4s) in the limit;
    it enters the state recursion through Mrec = (eta I + kappa A) Omega^-1,
    so the effective covariance is (1/4s) Mrec^T Mrec.
    """
    eta, kappa, omega = problem.params
    Mrec = (eta * np.eye(problem.g.n) + kappa * problem.A) / omega[None, :].astype(float)
    return Mrec.T @ Mrec / (4.0 * problem.cfg.s)


def sigma_lyapunov(problem: Problem) -> np.ndarray:
    """Stationary covariance from the Lyapunov equation (numerical route)."""
    S = problem.drift.K + 0.5 * np.eye(problem.g.n)
    if np.max(np.real(np.linalg.eigvals(S))) >= -1e-12:
        raise NotApplicableError("drift is not strictly stable beyond 1/2; no sqrt(t) regime")
    return scipy.linalg.solve_continuous_lyapunov(S.T, -noise_covariance(problem))


def fluctuation(problem: Problem) -> FluctuationReport:
    """Scaling regime and limit covariance around the 1/2 limit.

    Requires a Friedman model whose classified limit is the unique point
    1/2 1. rho is the smallest eigenvalue of -K; rho > 1/2 gives the
    sqrt(t) regime with covariance Sigma, rho = 1/2 (within 1e-9) the
    sqrt(t/log t) regime with SigmaTilde, and rho < 1/2 no stated scaling.
    """
    cfg, g = problem.cfg, problem.g
    if not cfg.is_friedman:
        raise NotApplicableError("fluctuation theory covers Friedman models only")
    cls = problem.classification
    if cls.applicable_theorem not in ("friedman_unique", "directed_friedman_unique"):
        raise NotApplicableError(
            f"limit is not the unique point 1/2 (classified {cls.applicable_theorem})")

    n = g.n
    ADi = problem.A / problem.deg[None, :]
    symmetric = not g.directed and np.allclose(ADi, ADi.T, atol=1e-12)
    rho_eigs = np.linalg.eigvals(-problem.drift.K)
    rho = float(np.min(rho_eigs.real))
    Gamma = np.eye(n) / (4.0 * cfg.s)

    if rho > 0.5 + _CRITICAL_TOL:
        closed = symmetric and cfg.neighbourhood in ("self", "neighbour")
        if closed:
            if cfg.neighbourhood == "self":
                M = (2 * cfg.p + 1) * np.eye(n) + 2 * (1 - cfg.p) * ADi
                Sigma = np.linalg.inv(M) / (4.0 * cfg.s)
            else:
                M = np.eye(n) + 2 * cfg.p * ADi + 2 * (1 - cfg.p) * (ADi @ ADi)
                Sigma = (ADi @ ADi) @ np.linalg.inv(M) / (4.0 * cfg.s)
            Sigma = 0.5 * (Sigma + Sigma.T)
        else:
            Sigma = sigma_lyapunov(problem)
        return FluctuationReport(
            rho=rho, regime="sqrt_t", Gamma=Gamma, Sigma=Sigma, SigmaTilde=None,
            closed_form=closed, near_critical=bool(rho < 0.5 + _NEAR_CRITICAL_BAND))

    if abs(rho - 0.5) <= _CRITICAL_TOL:
        tilde = None
        closed = False
        if symmetric and cfg.neighbourhood in ("self", "neighbour"):
            nu, U = np.linalg.eigh(ADi)
            if cfg.neighbourhood == "self":
                shifted = (2 * cfg.p + 1) + 2 * (1 - cfg.p) * nu
            else:
                shifted = 1 + 2 * cfg.p * nu + 2 * (1 - cfg.p) * nu * nu
            B = (np.abs(shifted) < 1e-9).astype(float)
            tilde = (U * B[None, :]) @ U.T / (4.0 * cfg.s)
            closed = True
        return FluctuationReport(
            rho=rho, regime="sqrt_t_over_log_t", Gamma=Gamma, Sigma=None,
            SigmaTilde=tilde, closed_form=closed)

    return FluctuationReport(rho=rho, regime="not_applicable", Gamma=Gamma,
                             Sigma=None, SigmaTilde=None, closed_form=False)


def decay_exponents(sd: SpectralData) -> DecayPrediction:
    """Polynomial decay rates of partition contrasts (self-reinforcement, p=0).

    The mean of a contrast annihilating the zero mode decays like
    t^(-theta); its variance decays like t^(-eps) with
    eps = min over eigenvalue pairs (excluding the zero-zero pair) of
    min(lambda_p + lambda_q, 1), picking up a log factor when the binding
    pair sums to exactly 1.
    """
    if not sd.diagonalizable:
        raise AssumptionViolatedError("matrix is not diagonalizable")
    if np.iscomplexobj(sd.eigenvalues):
        raise AssumptionViolatedError("spectrum is not real")
    lam = np.asarray(sd.eigenvalues, float)
    if abs(lam[0]) >= ZERO_EIG_TOL:
        raise AssumptionViolatedError("no zero eigenvalue: graph is not bipartite")
    if sd.theta is None:
        raise AssumptionViolatedError("theta undefined")
    n = len(lam)
    sums = [lam[i] + lam[j] for i in range(n) for j in range(i, n) if (i, j) != (0, 0)]
    minsum = min(sums)
    return DecayPrediction(
        mean_exponent=float(sd.theta),
        variance_exponent=float(min(minsum, 1.0)),
        log_correction=bool(abs(minsum - 1.0) < 1e-9),
    )
