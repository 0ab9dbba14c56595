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
from typing import Optional

import numpy as np

from .dynamics import check_budget, check_keys, checkpoint_index, read_number, simulate_ensemble
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


def sync_metrics(problem: Problem, Z: np.ndarray) -> SyncMetrics:
    """Per-replica synchronization metrics of an (R, n) snapshot Z."""
    deg, g = problem.deg, problem.g
    dbar = deg.sum()
    zbar = Z @ deg / dbar
    global_spread = np.abs(Z - zbar[:, None]).max(axis=1)
    if g.bipartition is None:
        return SyncMetrics(zbar=zbar, global_spread=global_spread)
    V, W = g.bipartition
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
    coeff = (Z - ls.particular[None, :]) @ ls.basis.T  # orthonormal rows
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
    'variance' uses the ensemble variance of Z_t Q, so it needs R >= 2
    replicas (TooFewReplicasError otherwise). Checkpoints where the
    statistic is not strictly positive are dropped, and so are those outside
    window = (lo, hi); verify's default window is (100, steps), since the
    rates are asymptotic and the early transient is excluded.
    """
    if statistic not in ("mean-gap", "variance"):
        raise ConfigError(f"unknown statistic {statistic!r}")
    if statistic == "variance" and Z.shape[1] < 2:
        raise TooFewReplicasError("need at least 2 replicas for a variance")
    lo, hi = window
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


def fluctuation_estimate(Z: np.ndarray, t: int) -> np.ndarray:
    """Sample covariance across replicas of sqrt(t) (Z_t - 1/2), for the
    (R, n) snapshot Z taken at time t."""
    if len(Z) < 2:
        raise TooFewReplicasError("need at least 2 replicas for a covariance")
    X = math.sqrt(t) * (Z - 0.5)
    Xc = X - X.mean(axis=0)
    return Xc.T @ Xc / (len(Z) - 1)


# ---------------------------------------------------------------------------
# verification plans

# The budget of a plan or criterion that sets none.
_BUDGET = {"steps": 100_000, "replicas": 64}


def default_plan(problem: Problem) -> dict:
    """The built-in plan: the _BUDGET defaults and, at _criterion's default
    tolerance, the criteria the classification's limit and sync call for:
    convergence to 1/2 1 for a 'point' limit, then always manifold (with no
    limit it fails with that reason), then sync in the scope sync names."""
    cls = problem.classification
    criteria = [{"kind": "convergence"}] if cls.limit == "point" else []
    criteria.append({"kind": "manifold"})
    if cls.sync:
        criteria.append({"kind": "sync", "scope": cls.sync})
    return {**_BUDGET, "criteria": criteria}


# The keys a plan may hold, the keys every criterion may carry, then each
# kind's own: all but rate, which fits over a window, read one snapshot "at".
_PLAN_KEYS = ("steps", "replicas", "schedule", "seed", "criteria")
_COMMON_KEYS = {"kind", "tolerance", "steps", "replicas", "schedule", "seed"}
_KINDS = {
    "convergence": {"at", "target"},
    "sync": {"at", "scope", "cross_sum_tolerance", "cross_sum_fraction"},
    "manifold": {"at"},
    "rate": {"contrast", "window", "statistic", "target"},
    "fluctuation": {"at", "sigma"},
}


def verify(problem: Problem, plan: dict) -> dict:
    """Run the plan's ensembles and evaluate every criterion: the report
    {"overall_pass": bool, "criteria": [entry, ...]} that `urnnet verify`
    prints, each entry as _entry builds it.

    Criteria share the plan-level (steps, replicas, schedule, seed) budget
    unless they override it. Every criterion and its budget are read and
    checked before any ensemble runs; a plan error (an unknown key, a bad
    budget, a malformed criterion) is a ConfigError. Ensembles are cached
    per checked budget, so two spellings of one schedule run one ensemble.
    An UrnnetError inside a criterion (inapplicable theory, a missing
    checkpoint) becomes a failed entry, named as the evaluated entry would
    be, whose note names the error type; any other exception propagates.
    """
    check_keys("plan", plan, _PLAN_KEYS)
    criteria = plan.get("criteria")
    if not criteria:
        raise ConfigError("plan has no criteria")
    if not isinstance(criteria, list):
        raise ConfigError(f"plan criteria must be a list, got {criteria!r}")
    parsed = [_criterion(crit, plan, problem) for crit in criteria]
    cache = {}

    def ensemble(budget):
        if budget not in cache:
            steps, replicas, times, seed = budget
            cache[budget] = simulate_ensemble(problem, steps, schedule=times,
                                              replicas=replicas, seed=seed)
        return cache[budget]

    entries = []
    for label, tol, evaluate in parsed:
        try:
            entries.append(evaluate(ensemble))
        except UrnnetError as exc:
            entries.append(_entry(label, None, None, tol, False, f"{type(exc).__name__}: {exc}"))
    return {"overall_pass": all(e["pass"] for e in entries), "criteria": entries}


def _entry(criterion, theoretical, empirical, tolerance, passed, note) -> dict:
    """One criterion's report entry, its keys in the order verify prints them."""
    return {"criterion": criterion, "theoretical": theoretical, "empirical": empirical,
            "tolerance": tolerance, "pass": passed, "note": note}


def _criterion(crit, plan: dict, problem: Problem) -> tuple:
    """crit read and checked, its defaults applied: (label, tolerance,
    evaluate), where label is the entry's "criterion" name, kind@t=at,
    sync-scope@t=at or rate[statistic]. evaluate(ensemble) runs the check on
    ensemble(budget), the run of the criterion's own keys, else the plan's,
    else _BUDGET's, parse_schedule's and the problem's seed, through
    check_budget; "at" defaults to the last step.
    The theory a check compares against is read inside evaluate, after the
    plan is checked. ConfigError unless crit is an object with a known
    string "kind", only the common keys and its kind's own, and values that
    read."""
    if not isinstance(crit, dict) or not isinstance(crit.get("kind"), str):
        raise ConfigError(f"criterion must be an object with a string 'kind', got {crit!r}")
    kind = crit["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"unknown criterion kind {kind!r}")
    check_keys(f"bad {kind!r} criterion", crit, _COMMON_KEYS | _KINDS[kind])
    run = {**_BUDGET, "seed": problem.cfg.seed, **plan, **crit}
    try:
        budget = check_budget(problem, run["steps"], run["replicas"], run.get("schedule"),
                              run["seed"])
    except ConfigError as exc:
        raise ConfigError(f"bad plan budget: {exc}") from None
    n = problem.g.n
    try:
        tol = read_number(crit.get("tolerance", 0.05), "'tolerance'", integer=False, least=0)
        at = read_number(crit.get("at", budget[0]), "'at'")
        label = f"{kind}@t={at}"

        def snapshot(ensemble):
            """The (R, n) snapshot at "at"; NotACheckpointError before any run if off schedule."""
            k = checkpoint_index(budget[2], at)
            return ensemble(budget).fractions(k)

        if kind == "convergence":
            target = _read_numbers(crit.get("target", 0.5), "'target'")
            if target.shape not in ((), (n,)):
                raise ConfigError(f"'target' must be a number or {n} numbers")

            def evaluate(ensemble):
                sup = float(np.abs(snapshot(ensemble) - target).max(axis=1).mean())
                return _entry(label, target.tolist(), sup, tol, sup <= tol,
                              "mean sup-norm distance to target")
        elif kind == "sync":
            scope = crit.get("scope", "partition" if problem.g.bipartition else "global")
            if scope not in ("global", "partition"):
                raise ConfigError(f"'scope' must be 'global' or 'partition', got {scope!r}")
            cross = crit.get("cross_sum_tolerance")
            if cross is not None:
                cross = read_number(cross, "'cross_sum_tolerance'", integer=False, least=0)
            need = read_number(crit.get("cross_sum_fraction", 0.95), "'cross_sum_fraction'",
                               integer=False)
            if not 0 <= need <= 1:
                raise ConfigError(f"'cross_sum_fraction' must lie in [0, 1], got {need}")
            if scope == "global" and {"cross_sum_tolerance", "cross_sum_fraction"} & crit.keys():
                raise ConfigError("the cross-sum keys need scope 'partition'")
            if cross is None and "cross_sum_fraction" in crit:
                raise ConfigError("'cross_sum_fraction' needs a 'cross_sum_tolerance'")
            label = f"sync-{scope}@t={at}"

            def evaluate(ensemble):
                if scope == "partition" and problem.g.bipartition is None:  # no run needed
                    raise NoBipartitionError("graph admits no bipartition")
                sm = sync_metrics(problem, snapshot(ensemble))
                if scope == "global":
                    emp = float(sm.global_spread.mean())
                    return _entry(label, 0.0, emp, tol, emp <= tol, "mean global spread")
                emp = float(max(sm.within_v.mean(), sm.within_w.mean()))
                ok = emp <= tol
                note = "mean within-partition spread"
                if cross is not None:
                    frac = float(np.mean(np.abs(sm.cross_sum - 1.0) <= cross))
                    ok = ok and frac >= need
                    note += f"; cross-sum within {cross} for {frac:.0%} of replicas"
                return _entry(label, 0.0, emp, tol, ok, note)
        elif kind == "manifold":
            def evaluate(ensemble):
                ls = problem.predicted_limit
                if ls is None:
                    raise NotApplicableError(
                        f"no predicted limit ({problem.classification.applicable_theorem})")
                emp = float(manifold_distance(snapshot(ensemble), ls).mean())
                return _entry(label, 0.0, emp, tol, emp <= tol,
                              f"mean distance to {ls.kind} limit set")
        elif kind == "rate":
            contrast = _read_numbers(crit.get("contrast"), "'contrast'")
            if contrast.ndim not in (1, 2) or len(contrast) != n:
                raise ConfigError(f"'contrast' must be a vector or a matrix with {n} rows")
            w = crit.get("window", (100, budget[0]))
            try:
                lo, hi = w if isinstance(w, (list, tuple)) else None
                window = (read_number(lo, "'window'"), read_number(hi, "'window'"))
            except (ConfigError, TypeError, ValueError):
                raise ConfigError(f"'window' must be two integers, got {w!r}") from None
            statistic = crit.get("statistic", "mean-gap")
            if statistic not in ("mean-gap", "variance"):
                raise ConfigError(f"unknown statistic {statistic!r}")
            target = crit.get("target")
            if target is not None:
                target = read_number(target, "'target'", integer=False)
            # a rate that can fit nothing, checked once every other key is read
            if window[0] > window[1]:
                raise ConfigError(f"'window' {list(window)} runs backwards: nothing to fit")
            if not contrast.any():
                raise ConfigError("'contrast' is all zero, so every statistic is 0")
            label = f"rate[{statistic}]"

            def evaluate(ensemble):
                want = target
                if target is None:  # analyze's exponent, never -0.0, or its reason for none
                    dp = problem.decay
                    want = 0.0 - (dp.mean_exponent if statistic == "mean-gap"
                                  else dp.variance_exponent)
                if statistic == "variance" and budget[1] < 2:
                    raise TooFewReplicasError("need at least 2 replicas for a variance")
                es = ensemble(budget)
                fit = rate_fit(es.times, es.Z, statistic, window, contrast)
                return _entry(label, want, fit.slope, tol,
                              abs(fit.slope - want) <= tol,
                              f"stderr={fit.stderr:.3g}, {len(fit.times)} checkpoints")
        else:  # fluctuation
            sigma = _read_numbers(crit["sigma"], "'sigma'") if "sigma" in crit else None
            if sigma is not None and sigma.shape != (n, n):
                raise ConfigError(f"'sigma' must be an {n} x {n} matrix")
            if sigma is not None and not sigma.any():
                raise ConfigError("'sigma' is all zero, so no error is relative to it")

            def evaluate(ensemble):
                rep = problem.fluctuation
                if rep.regime != "sqrt_t":
                    raise NotApplicableError(f"no sqrt(t) covariance (regime {rep.regime})")
                if budget[1] < 2:  # reported ahead of an off-schedule "at"
                    raise TooFewReplicasError("need at least 2 replicas for a covariance")
                emp = fluctuation_estimate(snapshot(ensemble), at)
                ref = rep.Sigma if sigma is None else sigma
                err = float(np.linalg.norm(emp - ref) / np.linalg.norm(ref))
                return _entry(label, ref.tolist(), emp.tolist(), tol,
                              err <= tol, f"relative Frobenius error {err:.3f}")
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {kind!r} criterion: {exc}") from None
    return label, tol, evaluate


def _read_numbers(value, key: str) -> np.ndarray:
    """value, a number or nested lists of them, as a float array whose every
    entry went through read_number: null, a bool or a non-finite entry is a
    ConfigError naming key, and so is a ragged list."""
    entries = np.asarray(value, dtype=object)
    return np.array([read_number(x, key, integer=False) for x in entries.ravel()],
                    dtype=float).reshape(entries.shape)
