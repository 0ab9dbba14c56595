"""Replicated Monte Carlo campaigns and statistical verification.

An ensemble is a set of replicas advanced in lock-step from the same initial
composition; all cross-replica statistics (means, covariances, spreads,
log-log rate fits, scaled-fluctuation covariances) are computed at snapshot
checkpoints. verify() evaluates a plan of tolerance criteria against theory
predictions and reports per-criterion pass/fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import simulate_ensemble
from .errors import (
    ConfigError,
    NoBipartitionError,
    NonPositiveStatisticError,
    NotApplicableError,
    TooFewReplicasError,
)
from .theory import LimitSet, Problem

__all__ = [
    "EnsembleStats",
    "SyncMetrics",
    "RateFit",
    "VerificationEntry",
    "VerificationReport",
    "ensemble",
    "sync_metrics",
    "manifold_distance",
    "rate_fit",
    "fluctuation_estimate",
    "verify",
    "default_plan",
]


@dataclass(frozen=True)
class EnsembleStats:
    """Checkpointed cross-replica means (plus raw snapshots)."""

    times: np.ndarray          # (K,)
    mean: np.ndarray           # (K, n)
    Z: np.ndarray              # (K, R, n) per-replica snapshots
    replicas: int
    seed: int

    def index_of(self, t: int) -> int:
        hits = np.flatnonzero(self.times == t)
        if not hits.size:
            raise KeyError(f"t={t} is not a checkpoint (have {self.times.tolist()})")
        return int(hits[0])


def ensemble(problem: Problem, replicas: int, steps: int,
             schedule=None, seed: Optional[int] = None) -> EnsembleStats:
    """Run replicas and aggregate; deterministic in (seed, replicas, schedule)."""
    if seed is None:
        seed = problem.cfg.seed
    raw = simulate_ensemble(problem, steps, schedule=schedule, replicas=replicas, rng=seed)
    return EnsembleStats(times=raw.times, mean=raw.Z.mean(axis=1), Z=raw.Z,
                         replicas=replicas, seed=int(seed))


@dataclass(frozen=True)
class SyncMetrics:
    """Spread and degree-weighted average diagnostics at one checkpoint.

    Weighted averages use the paper-free identity d_v Zv + d_w Zw = d Zbar
    per replica, which holds by construction and is asserted in tests.
    """

    t: int
    zbar: np.ndarray                      # (R,) degree-weighted global mean
    global_spread: np.ndarray             # (R,) max_i |Z_i - zbar|
    zbar_v: Optional[np.ndarray] = None   # (R,) degree-weighted mean on V
    zbar_w: Optional[np.ndarray] = None
    within_v: Optional[np.ndarray] = None  # (R,) max_{i in V} |Z_i - zbar_v|
    within_w: Optional[np.ndarray] = None
    cross_sum: Optional[np.ndarray] = None  # (R,) zbar_v + zbar_w


def sync_metrics(problem: Problem, es: EnsembleStats, t: int,
                 require_partition: bool = False) -> SyncMetrics:
    """Per-replica synchronization metrics at checkpoint t."""
    k = es.index_of(t)
    Z = es.Z[k]
    deg, ga = problem.deg, problem.analysis
    dbar = deg.sum()
    zbar = Z @ deg / dbar
    global_spread = np.abs(Z - zbar[:, None]).max(axis=1)
    if ga.bipartition is None:
        if require_partition:
            raise NoBipartitionError("graph admits no bipartition")
        return SyncMetrics(t=t, zbar=zbar, global_spread=global_spread)
    V, W = ga.bipartition
    vi = sorted(V)
    wi = sorted(W)
    dv = deg[vi].sum()
    dw = deg[wi].sum()
    zv = Z[:, vi] @ deg[vi] / dv
    zw = Z[:, wi] @ deg[wi] / dw
    return SyncMetrics(
        t=t, zbar=zbar, global_spread=global_spread,
        zbar_v=zv, zbar_w=zw,
        within_v=np.abs(Z[:, vi] - zv[:, None]).max(axis=1),
        within_w=np.abs(Z[:, wi] - zw[:, None]).max(axis=1),
        cross_sum=zv + zw,
    )


def manifold_distance(es: EnsembleStats, ls: LimitSet, t: int) -> np.ndarray:
    """Per-replica Euclidean distance to the limit set (box-clipped projection)."""
    k = es.index_of(t)
    Z = es.Z[k]
    diff = Z - ls.particular[None, :]
    if ls.dimension == 0:
        return np.linalg.norm(diff, axis=1)
    coeff = diff @ ls.basis.T  # orthonormal rows
    if ls.box is not None:
        coeff = np.clip(coeff, ls.box[:, 0][None, :], ls.box[:, 1][None, :])
    proj = ls.particular[None, :] + coeff @ ls.basis
    return np.linalg.norm(Z - proj, axis=1)


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    times: np.ndarray
    values: np.ndarray
    dropped: int


def rate_fit(es: EnsembleStats, statistic: str, window, Q) -> RateFit:
    """Least-squares slope of log(statistic) against log(t).

    statistic 'mean-gap' uses |mean over replicas of Z_t Q| (vector Q gives a
    scalar contrast; a matrix uses the Euclidean norm of the mean vector);
    'variance' uses the ensemble variance of Z_t Q. Checkpoints where the
    statistic is not strictly positive are dropped. window=None fits over
    [100, last checkpoint]; the rates are asymptotic, so the early transient
    is excluded by default.
    """
    if statistic not in ("mean-gap", "variance"):
        raise ConfigError(f"unknown statistic {statistic!r}")
    lo, hi = window if window is not None else (100, int(es.times[-1]))
    mask = (es.times >= lo) & (es.times <= hi) & (es.times > 0)
    ts = es.times[mask]
    Q = np.asarray(Q, float)
    vals = []
    for k in np.flatnonzero(mask):
        phi = es.Z[k] @ Q  # (R,) or (R, m)
        if statistic == "mean-gap":
            m = phi.mean(axis=0)
            vals.append(float(np.abs(m)) if np.ndim(m) == 0 else float(np.linalg.norm(m)))
        else:
            v = phi.var(axis=0, ddof=1)
            vals.append(float(v) if np.ndim(v) == 0 else float(np.sum(v)))
    vals = np.asarray(vals)
    keep = vals > 0.0
    dropped = int(np.sum(~keep))
    ts, vals = ts[keep], vals[keep]
    if len(ts) < 2:
        raise NonPositiveStatisticError(
            f"only {len(ts)} positive value(s) in window {window}")
    x = np.log(ts.astype(float))
    y = np.log(vals)
    X = np.vstack([x, np.ones_like(x)]).T
    (slope, _), res, *_ = np.linalg.lstsq(X, y, rcond=None)
    dof = len(x) - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        stderr = math.sqrt(sigma2 / float(np.sum((x - x.mean()) ** 2)))
    else:
        stderr = float("nan")
    return RateFit(slope=float(slope), stderr=stderr, times=ts, values=vals,
                   dropped=dropped)


def fluctuation_estimate(es: EnsembleStats, t: int, center=0.5) -> np.ndarray:
    """Sample covariance across replicas of sqrt(t) (Z_t - center)."""
    if es.replicas < 2:
        raise TooFewReplicasError("need at least 2 replicas for a covariance")
    k = es.index_of(t)
    X = math.sqrt(t) * (es.Z[k] - center)
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / (es.replicas - 1)


# ---------------------------------------------------------------------------
# verification plans

@dataclass(frozen=True)
class VerificationEntry:
    criterion: str
    theoretical: object
    empirical: object
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries)


def default_plan(steps: int = 100_000, replicas: int = 64) -> dict:
    """Convergence + manifold plan appropriate for any classified model."""
    return {
        "steps": steps,
        "replicas": replicas,
        "schedule": "geometric(1.2)",
        "criteria": [
            {"kind": "convergence", "tolerance": 0.05},
            {"kind": "manifold", "tolerance": 0.05},
        ],
    }


def _relative_frobenius(emp, ref):
    return float(np.linalg.norm(emp - ref) / np.linalg.norm(ref))


def verify(problem: Problem, plan: dict) -> VerificationReport:
    """Run the plan's ensembles and evaluate every criterion.

    Criteria share the plan-level (steps, replicas, schedule, seed) budget
    unless they override it; ensembles are cached per distinct budget.
    Failures inside a criterion (inapplicable theory, missing checkpoints)
    become failed entries rather than exceptions.
    """
    if not plan.get("criteria"):
        raise ConfigError("plan has no criteria")
    cache = {}

    def get_stats(crit):
        steps = int(crit.get("steps", plan.get("steps", 100_000)))
        replicas = int(crit.get("replicas", plan.get("replicas", 64)))
        schedule = crit.get("schedule", plan.get("schedule", "geometric(1.2)"))
        if isinstance(schedule, list):
            schedule = tuple(schedule)
        seed = int(crit.get("seed", plan.get("seed", problem.cfg.seed)))
        key = (steps, replicas, repr(schedule), seed)
        if key not in cache:
            cache[key] = ensemble(problem, replicas, steps, schedule=schedule, seed=seed)
        return cache[key]

    entries = []
    for crit in plan["criteria"]:
        kind = crit["kind"]
        tol = float(crit.get("tolerance", 0.05))
        try:
            entries.append(_evaluate_criterion(kind, crit, tol, problem, get_stats))
        except Exception as exc:  # noqa: BLE001 - surfaced as a failed entry
            entries.append(VerificationEntry(
                criterion=kind, theoretical=None, empirical=None,
                tolerance=tol, passed=False, note=f"{type(exc).__name__}: {exc}"))
    return VerificationReport(entries=tuple(entries))


def _evaluate_criterion(kind, crit, tol, problem, get_stats):
    if kind == "convergence":
        es = get_stats(crit)
        t = int(crit.get("at", es.times[-1]))
        target = crit.get("target", 0.5)
        k = es.index_of(t)
        sup = np.abs(es.Z[k] - target).max(axis=1).mean()
        return VerificationEntry(
            criterion=f"convergence@t={t}", theoretical=target,
            empirical=float(sup), tolerance=tol, passed=bool(sup <= tol),
            note="mean sup-norm distance to target")

    if kind == "sync":
        es = get_stats(crit)
        t = int(crit.get("at", es.times[-1]))
        scope = crit.get("scope", "partition" if problem.analysis.bipartition else "global")
        sm = sync_metrics(problem, es, t, require_partition=(scope == "partition"))
        if scope == "global":
            emp = float(sm.global_spread.mean())
            return VerificationEntry(
                criterion=f"sync-global@t={t}", theoretical=0.0, empirical=emp,
                tolerance=tol, passed=bool(emp <= tol), note="mean global spread")
        emp = float(max(sm.within_v.mean(), sm.within_w.mean()))
        ok = emp <= tol
        note = "mean within-partition spread"
        cross_tol = crit.get("cross_sum_tolerance")
        if cross_tol is not None:
            frac = float(np.mean(np.abs(sm.cross_sum - 1.0) <= cross_tol))
            need = float(crit.get("cross_sum_fraction", 0.95))
            ok = ok and frac >= need
            note += f"; cross-sum within {cross_tol} for {frac:.0%} of replicas"
        return VerificationEntry(
            criterion=f"sync-partition@t={t}", theoretical=0.0, empirical=emp,
            tolerance=tol, passed=bool(ok), note=note)

    if kind == "manifold":
        cls = problem.classification
        if cls.predicted_limit is None:
            raise NotApplicableError(f"no predicted limit ({cls.applicable_theorem})")
        es = get_stats(crit)
        t = int(crit.get("at", es.times[-1]))
        dist = manifold_distance(es, cls.predicted_limit, t)
        emp = float(dist.mean())
        return VerificationEntry(
            criterion=f"manifold@t={t}", theoretical=0.0, empirical=emp,
            tolerance=tol, passed=bool(emp <= tol),
            note=f"mean distance to {cls.predicted_limit.kind} limit set")

    if kind == "rate":
        es = get_stats(crit)
        window = tuple(crit.get("window", (100, int(es.times[-1]))))
        Q = np.asarray(crit["contrast"], float)
        fit = rate_fit(es, crit.get("statistic", "mean-gap"), window, Q)
        target = crit.get("target")
        if target is None:
            theta = problem.spectral.theta
            if theta is None:
                raise NotApplicableError("theta undefined; give the criterion a 'target'")
            target = -theta
        target = float(target)
        err = abs(fit.slope - target)
        return VerificationEntry(
            criterion=f"rate[{crit.get('statistic', 'mean-gap')}]",
            theoretical=target, empirical=fit.slope, tolerance=tol,
            passed=bool(err <= tol),
            note=f"stderr={fit.stderr:.3g}, {len(fit.times)} checkpoints")

    if kind == "fluctuation":
        rep = problem.fluctuation
        if rep.regime != "sqrt_t" or rep.Sigma is None:
            raise NotApplicableError(f"no sqrt(t) covariance (regime {rep.regime})")
        es = get_stats(crit)
        t = int(crit.get("at", es.times[-1]))
        emp = fluctuation_estimate(es, t)
        ref = np.asarray(crit["sigma"], float) if "sigma" in crit else rep.Sigma
        err = _relative_frobenius(emp, ref)
        return VerificationEntry(
            criterion=f"fluctuation@t={t}", theoretical=ref.tolist(),
            empirical=emp.tolist(), tolerance=tol, passed=bool(err <= tol),
            note=f"relative Frobenius error {err:.3f}")

    raise ConfigError(f"unknown criterion kind {kind!r}")
