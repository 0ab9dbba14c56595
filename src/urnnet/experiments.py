"""Checkpoint statistics of replicated ensembles, and statistical verification.

An ensemble is simulate_ensemble's set of replicas advanced in lock-step
from the same initial composition. Every statistic here is a plain function
of the colour fractions Z: an (R, n) snapshot at one checkpoint (spreads,
manifold distances, scaled-fluctuation covariances), or the (K, R, n) stack
for log-log rate fits. verify() evaluates a plan of tolerance criteria
against theory predictions and reports per-criterion pass/fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .dynamics import EnsembleTrajectories, check_totals, parse_schedule, simulate_ensemble
from .errors import (
    ConfigError,
    NoBipartitionError,
    NonPositiveStatisticError,
    NotApplicableError,
    TooFewReplicasError,
    UrnnetError,
)
from .theory import LimitSet, Problem

__all__ = [
    "SyncMetrics",
    "RateFit",
    "VerificationEntry",
    "VerificationReport",
    "sync_metrics",
    "manifold_distance",
    "rate_fit",
    "fluctuation_estimate",
    "verify",
    "default_plan",
]


@dataclass(frozen=True)
class SyncMetrics:
    """Spread and degree-weighted average diagnostics of one snapshot.

    Weighted averages use the paper-free identity d_v Zv + d_w Zw = d Zbar
    per replica, which holds by construction and is asserted in tests.
    """

    zbar: np.ndarray                      # (R,) degree-weighted global mean
    global_spread: np.ndarray             # (R,) max_i |Z_i - zbar|
    zbar_v: Optional[np.ndarray] = None   # (R,) degree-weighted mean on V
    zbar_w: Optional[np.ndarray] = None
    within_v: Optional[np.ndarray] = None  # (R,) max_{i in V} |Z_i - zbar_v|
    within_w: Optional[np.ndarray] = None
    cross_sum: Optional[np.ndarray] = None  # (R,) zbar_v + zbar_w


def sync_metrics(problem: Problem, Z: np.ndarray,
                 require_partition: bool = False) -> SyncMetrics:
    """Per-replica synchronization metrics of an (R, n) snapshot Z."""
    deg, ga = problem.deg, problem.analysis
    dbar = deg.sum()
    zbar = Z @ deg / dbar
    global_spread = np.abs(Z - zbar[:, None]).max(axis=1)
    if ga.bipartition is None:
        if require_partition:
            raise NoBipartitionError("graph admits no bipartition")
        return SyncMetrics(zbar=zbar, global_spread=global_spread)
    V, W = ga.bipartition
    vi = sorted(V)
    wi = sorted(W)
    dv = deg[vi].sum()
    dw = deg[wi].sum()
    zv = Z[:, vi] @ deg[vi] / dv
    zw = Z[:, wi] @ deg[wi] / dw
    return SyncMetrics(
        zbar=zbar, global_spread=global_spread,
        zbar_v=zv, zbar_w=zw,
        within_v=np.abs(Z[:, vi] - zv[:, None]).max(axis=1),
        within_w=np.abs(Z[:, wi] - zw[:, None]).max(axis=1),
        cross_sum=zv + zw,
    )


def manifold_distance(Z: np.ndarray, ls: LimitSet) -> np.ndarray:
    """Per-replica Euclidean distance of an (R, n) snapshot Z to the limit
    set (box-clipped projection)."""
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
    times: np.ndarray  # the checkpoints fitted


def rate_fit(times: np.ndarray, Z: np.ndarray, statistic: str, window, Q) -> RateFit:
    """Least-squares slope of log(statistic) against log(t).

    Z is the (K, R, n) stack of snapshots at the K checkpoints times.
    statistic 'mean-gap' uses |mean over replicas of Z_t Q| (vector Q gives a
    scalar contrast; a matrix uses the Euclidean norm of the mean vector);
    'variance' uses the ensemble variance of Z_t Q. Checkpoints where the
    statistic is not strictly positive are dropped. window=None fits over
    [100, last checkpoint]; the rates are asymptotic, so the early transient
    is excluded by default.
    """
    if statistic not in ("mean-gap", "variance"):
        raise ConfigError(f"unknown statistic {statistic!r}")
    lo, hi = window if window is not None else (100, int(times[-1]))
    mask = (times >= lo) & (times <= hi) & (times > 0)
    ts = times[mask]
    Q = np.asarray(Q, float)
    vals = []
    for k in np.flatnonzero(mask):
        phi = Z[k] @ Q  # (R,) or (R, m)
        if statistic == "mean-gap":
            m = phi.mean(axis=0)
            vals.append(float(np.abs(m)) if np.ndim(m) == 0 else float(np.linalg.norm(m)))
        else:
            v = phi.var(axis=0, ddof=1)
            vals.append(float(v) if np.ndim(v) == 0 else float(np.sum(v)))
    vals = np.asarray(vals)
    keep = vals > 0.0
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
    return RateFit(slope=float(slope), stderr=stderr, times=ts)


def fluctuation_estimate(Z: np.ndarray, t: int, center=0.5) -> np.ndarray:
    """Sample covariance across replicas of sqrt(t) (Z_t - center), for the
    (R, n) snapshot Z taken at time t."""
    if len(Z) < 2:
        raise TooFewReplicasError("need at least 2 replicas for a covariance")
    X = math.sqrt(t) * (Z - center)
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / (len(Z) - 1)


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
    An UrnnetError inside a criterion (inapplicable theory, a missing
    checkpoint) becomes a failed entry whose note names the error type; a
    ConfigError (a bad budget, a malformed criterion, an unknown criterion
    kind) is a plan error and propagates, and so does any other exception.
    Every criterion and its budget are checked before any ensemble runs.
    """
    criteria = plan.get("criteria")
    if not criteria:
        raise ConfigError("plan has no criteria")
    if not isinstance(criteria, list):
        raise ConfigError(f"plan criteria must be a list, got {criteria!r}")
    tols = [_check_criterion(crit, problem.g.n) for crit in criteria]
    budgets = [_budget(crit, plan, problem) for crit in criteria]
    cache = {}

    def get_stats(budget):
        steps, replicas, schedule, seed = budget
        key = (steps, replicas, repr(schedule), seed)
        if key not in cache:
            cache[key] = simulate_ensemble(problem, steps, schedule=schedule,
                                           replicas=replicas, seed=seed)
        return cache[key]

    entries = []
    for crit, tol, budget in zip(criteria, tols, budgets):
        kind = crit["kind"]
        try:
            entries.append(_evaluate_criterion(kind, crit, tol, problem,
                                               partial(get_stats, budget)))
        except ConfigError:
            raise
        except UrnnetError as exc:
            entries.append(VerificationEntry(
                criterion=kind, theoretical=None, empirical=None,
                tolerance=tol, passed=False, note=f"{type(exc).__name__}: {exc}"))
    return VerificationReport(entries=tuple(entries))


def _budget(crit: dict, plan: dict, problem: Problem) -> tuple:
    """(steps, replicas, schedule, seed) of a criterion: its own keys, else
    the plan's, else the problem's seed. ConfigError when one is malformed
    or out of range, or when the ball counts would overflow."""
    try:
        steps = int(crit.get("steps", plan.get("steps", 100_000)))
        replicas = int(crit.get("replicas", plan.get("replicas", 64)))
        seed = int(crit.get("seed", plan.get("seed", problem.cfg.seed)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad plan budget: {exc}") from None
    for name, value, least in (("steps", steps, 0), ("replicas", replicas, 1), ("seed", seed, 0)):
        if value < least:
            raise ConfigError(f"{name} must be >= {least}")
    check_totals(problem, steps)
    schedule = crit.get("schedule", plan.get("schedule", "geometric(1.2)"))
    parse_schedule(schedule, steps)
    return steps, replicas, schedule, seed


# The keys every criterion may carry, then each kind's own.
_COMMON_KEYS = {"kind", "tolerance", "at", "steps", "replicas", "schedule", "seed"}
_KINDS = {
    "convergence": {"target"},
    "sync": {"scope", "cross_sum_tolerance", "cross_sum_fraction"},
    "manifold": set(),
    "rate": {"contrast", "window", "statistic", "target"},
    "fluctuation": {"sigma"},
}


def _check_criterion(crit, n: int) -> float:
    """The criterion's tolerance. ConfigError unless crit is an object with a
    known string "kind" and only the common keys and its kind's own, whose
    "tolerance" converts to float and "at", when given, to int (the
    conversions the budget keys get), and whose kind's own keys hold what
    its evaluation reads (see _key_fault)."""
    if not isinstance(crit, dict) or not isinstance(crit.get("kind"), str):
        raise ConfigError(f"criterion must be an object with a string 'kind', got {crit!r}")
    kind = crit["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"unknown criterion kind {kind!r}")
    unknown = [key for key in crit if key not in _COMMON_KEYS and key not in _KINDS[kind]]
    if unknown:
        raise ConfigError(f"bad {kind!r} criterion: unknown key(s) "
                          + ", ".join(repr(key) for key in unknown))
    try:
        tol = float(crit.get("tolerance", 0.05))
        if "at" in crit:
            int(crit["at"])
        fault = _key_fault(kind, crit, n)
    except (TypeError, ValueError, OverflowError) as exc:
        fault = str(exc)
    if fault:
        raise ConfigError(f"bad {kind!r} criterion: {fault}")
    return tol


def _key_fault(kind: str, crit: dict, n: int) -> Optional[str]:
    """What is wrong with the kind-specific keys of crit on n urns, or None.
    The conversions the evaluation makes are made here too, and may raise."""
    if kind == "convergence":
        if np.shape(np.asarray(crit.get("target", 0.5), float)) not in ((), (n,)):
            return f"'target' must be a number or {n} numbers"
    if kind == "sync":
        if crit.get("scope", "global") not in ("global", "partition"):
            return f"'scope' must be 'global' or 'partition', got {crit['scope']!r}"
        if crit.get("cross_sum_tolerance") is not None:
            float(crit["cross_sum_tolerance"])
            float(crit.get("cross_sum_fraction", 0.95))
    if kind == "rate":
        Q = np.asarray(crit.get("contrast"), float)
        if Q.ndim not in (1, 2) or len(Q) != n:
            return f"'contrast' must be a vector or a matrix with {n} rows"
        w = crit.get("window", (0, 0))
        if not (isinstance(w, (list, tuple)) and len(w) == 2 and all(int(x) == x for x in w)):
            return f"'window' must be two integers, got {w!r}"
        if crit.get("statistic", "mean-gap") not in ("mean-gap", "variance"):
            return f"unknown statistic {crit['statistic']!r}"
        if crit.get("target") is not None:
            float(crit["target"])
    if kind == "fluctuation" and "sigma" in crit:
        if np.shape(np.asarray(crit["sigma"], float)) != (n, n):
            return f"'sigma' must be an {n} x {n} matrix"
    return None


def _snapshot(crit: dict, es: EnsembleTrajectories) -> tuple:
    """(t, Z_t): the criterion's "at", else the last checkpoint, and the
    (R, n) snapshot there. NotACheckpointError when t is off the schedule."""
    t = int(crit.get("at", es.times[-1]))
    return t, es.Z[es.index_of(t)]


def _evaluate_criterion(kind, crit, tol, problem, get_stats):
    if kind == "convergence":
        t, Z = _snapshot(crit, get_stats())
        target = crit.get("target", 0.5)
        sup = np.abs(Z - np.asarray(target, float)).max(axis=1).mean()
        return VerificationEntry(
            criterion=f"convergence@t={t}", theoretical=target,
            empirical=float(sup), tolerance=tol, passed=bool(sup <= tol),
            note="mean sup-norm distance to target")

    if kind == "sync":
        t, Z = _snapshot(crit, get_stats())
        scope = crit.get("scope", "partition" if problem.analysis.bipartition else "global")
        sm = sync_metrics(problem, Z, require_partition=(scope == "partition"))
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
            frac = float(np.mean(np.abs(sm.cross_sum - 1.0) <= float(cross_tol)))
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
        t, Z = _snapshot(crit, get_stats())
        emp = float(manifold_distance(Z, cls.predicted_limit).mean())
        return VerificationEntry(
            criterion=f"manifold@t={t}", theoretical=0.0, empirical=emp,
            tolerance=tol, passed=bool(emp <= tol),
            note=f"mean distance to {cls.predicted_limit.kind} limit set")

    if kind == "rate":
        es = get_stats()
        window = tuple(crit.get("window", (100, int(es.times[-1]))))
        Q = np.asarray(crit["contrast"], float)
        fit = rate_fit(es.times, es.Z, crit.get("statistic", "mean-gap"), window, Q)
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
        es = get_stats()
        if es.W.shape[1] < 2:  # reported ahead of an off-schedule "at"
            raise TooFewReplicasError("need at least 2 replicas for a covariance")
        t, Z = _snapshot(crit, es)
        emp = fluctuation_estimate(Z, t)
        ref = np.asarray(crit["sigma"], float) if "sigma" in crit else rep.Sigma
        err = _relative_frobenius(emp, ref)
        return VerificationEntry(
            criterion=f"fluctuation@t={t}", theoretical=ref.tolist(),
            empirical=emp.tolist(), tolerance=tol, passed=bool(err <= tol),
            note=f"relative Frobenius error {err:.3f}")

    raise AssertionError(kind)
