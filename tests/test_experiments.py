import numpy as np
import pytest

from urnnet.dynamics import simulate_ensemble
from urnnet.errors import (
    NoBipartitionError,
    NonPositiveStatisticError,
    TooFewReplicasError,
)
from urnnet.experiments import (
    EnsembleStats,
    ensemble,
    fluctuation_estimate,
    manifold_distance,
    rate_fit,
    sync_metrics,
    verify,
)
from urnnet.theory import LimitSet, limit_set

from conftest import problem


def make_stats(times, Z, seed=0):
    Z = np.asarray(Z, float)
    return EnsembleStats(times=np.asarray(times), mean=Z.mean(axis=1), Z=Z,
                         replicas=Z.shape[1], seed=seed)


def ensemble_cov(es, k):
    """Cross-replica covariance of the urn fractions at checkpoint index k."""
    centred = es.Z[k] - es.mean[k]
    return centred.T @ centred / (es.replicas - 1)


def test_ensemble_deterministic(c5):
    P = problem(c5, "ftsnr", 0.4, seed=21)
    a = ensemble(P, replicas=8, steps=400, seed=21)
    b = ensemble(P, replicas=8, steps=400, seed=21)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.mean, b.mean)
    c = ensemble(P, replicas=8, steps=400, seed=22)
    assert not np.array_equal(a.Z, c.Z)


def test_single_replica_degenerates_to_trajectory(c4):
    P = problem(c4, "ftsr", 0.5, seed=5)
    es = ensemble(P, replicas=1, steps=300, schedule="geometric(2)", seed=5)
    tr = simulate_ensemble(P, steps=300, schedule="geometric(2)", replicas=1, rng=5)
    assert np.array_equal(es.times, tr.times)
    assert np.array_equal(es.Z[:, 0, :], tr.Z[:, 0, :])
    assert np.array_equal(es.mean, tr.Z[:, 0, :])


def test_zero_time_covariance_is_zero(c4):
    es = ensemble(problem(c4, "ptsr", 0.5, seed=1), replicas=16, steps=50, schedule=[0, 50])
    assert np.all(ensemble_cov(es, 0) == 0.0)


def test_sync_metrics_identities(p3):
    # P3 is bipartite with partitions {0,2} and {1} and degrees (1,2,1)
    P = problem(p3, "ftsr", 0.3, seed=11)
    es = ensemble(P, replicas=12, steps=200, schedule=[0, 200])
    sm = sync_metrics(P, es, 200)
    deg = P.deg
    dv = deg[[0, 2]].sum()
    dw = deg[[1]].sum()
    assert np.allclose(dv * sm.zbar_v + dw * sm.zbar_w, deg.sum() * sm.zbar, atol=1e-12)
    assert np.all(sm.within_w == 0.0)  # single-vertex partition has no spread


def test_sync_metrics_all_half(c4):
    Z = np.full((1, 6, 4), 0.5)
    es = make_stats([0], Z)
    sm = sync_metrics(problem(c4), es, 0)
    assert np.all(sm.global_spread == 0) and np.all(sm.within_v == 0)
    assert np.allclose(sm.cross_sum, 1.0)


def test_sync_metrics_requires_bipartition(c5):
    P = problem(c5, "ptsr", 0.5)
    es = ensemble(P, replicas=4, steps=10, schedule=[10])
    with pytest.raises(NoBipartitionError):
        sync_metrics(P, es, 10, require_partition=True)


def test_manifold_distance_trivial_cases(c4):
    unique = LimitSet(kind="unique_point", particular=np.full(4, 0.5),
                      basis=np.zeros((0, 4)), box=np.zeros((0, 2)))
    Z = np.full((1, 3, 4), 0.5)
    assert np.allclose(manifold_distance(make_stats([0], Z), unique, 0), 0.0)

    family = limit_set(problem(c4, "ftsr", 0.0).drift)
    member = np.array([0.2, 0.8, 0.2, 0.8])
    Z = np.broadcast_to(member, (1, 5, 4)).copy()
    assert np.allclose(manifold_distance(make_stats([0], Z), family, 0), 0.0, atol=1e-12)
    # orthogonal offset: distance equals the offset norm
    off = np.array([1.0, 1.0, -1.0, -1.0]) / 2
    Z = (member + 0.07 * off)[None, None, :]
    d = manifold_distance(make_stats([0], Z), family, 0)
    assert d[0] == pytest.approx(0.07, abs=1e-12)


def test_manifold_distance_clips_to_box(c4):
    family = limit_set(problem(c4, "ftsr", 0.0).drift)
    outside = np.array([-0.3, 1.3, -0.3, 1.3])  # beyond the a=0 endpoint
    d = manifold_distance(make_stats([0], outside[None, None, :]), family, 0)
    assert d[0] == pytest.approx(0.6, abs=1e-12)  # clipped to (0,1,0,1)


def test_rate_fit_exact_power_law():
    times = np.array([10, 30, 100, 300, 1000, 3000])
    R = 4
    Z = np.zeros((len(times), R, 2))
    Z[:, :, 0] = 0.5 + (1.0 / times)[:, None]
    Z[:, :, 1] = 0.5
    es = make_stats(times, Z)
    fit = rate_fit(es, "mean-gap", (10, 3000), np.array([1.0, -1.0]))
    # statistic is exactly 1/t (the constant 0.5 cancels in the contrast)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_rate_fit_variance_statistic():
    times = np.array([10, 100, 1000, 10000, 100000])
    R = 8
    signs = np.tile([1.0, -1.0], R // 2)
    Z = np.zeros((len(times), R, 2))
    Z[:, :, 0] = 0.5 + signs[None, :] / np.sqrt(times)[:, None]
    Z[:, :, 1] = 0.5
    fit = rate_fit(make_stats(times, Z), "variance", (10, 100000), np.array([1.0, 0.0]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_rate_fit_rejects_zero_statistic():
    times = np.array([10, 100, 1000])
    Z = np.full((3, 4, 2), 0.5)
    with pytest.raises(NonPositiveStatisticError):
        rate_fit(make_stats(times, Z), "mean-gap", (10, 1000), np.array([1.0, -1.0]))


def test_fluctuation_estimate_properties(c4):
    Z = np.full((1, 7, 4), 0.5)
    assert np.allclose(fluctuation_estimate(make_stats([100], Z), 100), 0.0)
    rng = np.random.default_rng(0)
    Z = 0.5 + 0.01 * rng.standard_normal((1, 200, 4))
    S = fluctuation_estimate(make_stats([400], Z), 400)
    assert np.allclose(S, S.T)
    assert np.min(np.linalg.eigvalsh(S)) > -1e-12
    with pytest.raises(TooFewReplicasError):
        fluctuation_estimate(make_stats([400], Z[:, :1]), 400)


def test_negative_control_independent_urns(c4):
    # self-sampling Polya urns never interact: cross-urn ensemble correlation
    # stays near zero at every checkpoint
    P = problem(c4, "ptsr", 1.0, t0=6, w0=3, seed=17)
    es = ensemble(P, replicas=600, steps=2000, schedule="geometric(3)")
    for k, t in enumerate(es.times):
        if t == 0:
            continue
        c = ensemble_cov(es, k)
        sd = np.sqrt(np.diag(c))
        corr = c / np.outer(sd, sd)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1, f"t={t}"


def test_ftnr_supercritical_mc_matches_theory(c4):
    # neighbour-reinforcement with rho > 1/2: simulated scaled covariance
    # agrees with the closed form
    P = problem(c4, "ftnr", 0.5, s=2, seed=23)
    rep = P.fluctuation
    es = ensemble(P, replicas=3000, steps=4000, schedule=[4000])
    emp = fluctuation_estimate(es, 4000)
    rel = np.linalg.norm(emp - rep.Sigma) / np.linalg.norm(rep.Sigma)
    assert rel < 0.2, rel


def test_variance_statistic_rate_k2(k2):
    # self-reinforcement at p=0 on two urns: the within-partition contrast is
    # trivially zero, but the variance of the balanced functional Z0 + Z1
    # decays like 1/t (exact moment recursion gives slope -1.000)
    P = problem(k2, "ftsr", 0.0, s=2, seed=31)
    es = ensemble(P, replicas=2048, steps=20_000, schedule="geometric(1.4)")
    fit = rate_fit(es, "variance", (100, 20_000), np.array([1.0, 1.0]))
    assert fit.slope <= -0.8
    assert fit.slope >= -1.3


def test_critical_regime_scaled_variance(c4):
    # rho = 1/2 for self-reinforcement at p=1/4 on the 4-cycle: the
    # (t/log t)-scaled variance of the alternating projection approaches
    # v Sigma~ v^T = 1/(4s) = 1/8 (slow 1/log t convergence: the exact
    # moment recursion gives 0.1145 at t=1e4)
    P = problem(c4, "ftsr", 0.25, s=2, seed=37)
    rep = P.fluctuation
    assert rep.regime == "sqrt_t_over_log_t"
    v = np.array([1, -1, 1, -1]) / 2.0
    target = float(v @ rep.SigmaTilde @ v)
    assert target == pytest.approx(1 / 8)
    t = 10_000
    es = ensemble(P, replicas=4000, steps=t, schedule=[t])
    dev = es.Z[-1] @ v - 0.5 * np.sum(v)
    scaled = (t / np.log(t)) * dev.var(ddof=1)
    assert abs(scaled / target - 1.0) <= 0.25, scaled


def test_verify_plan(c5):
    P = problem(c5, "ftsnr", 0.5, seed=9)
    plan = {
        "steps": 3000,
        "replicas": 16,
        "schedule": "geometric(1.5)",
        "criteria": [
            {"kind": "convergence", "tolerance": 0.1},
            {"kind": "manifold", "tolerance": 0.1},
            {"kind": "sync", "scope": "global", "tolerance": 0.1},
        ],
    }
    report = verify(P, plan)
    assert report.overall_pass
    assert len(report.entries) == 3


def test_verify_partition_sync_plan(c4):
    P = problem(c4, "ftsr", 0.0, seed=13)
    plan = {
        "steps": 3000,
        "replicas": 16,
        "schedule": [3000],
        "criteria": [
            {"kind": "sync", "scope": "partition", "tolerance": 0.05,
             "cross_sum_tolerance": 0.03},
            {"kind": "manifold", "tolerance": 0.05},
        ],
    }
    report = verify(P, plan)
    assert report.overall_pass, [e.note for e in report.entries]


def test_verify_flags_wrong_sigma(k2):
    P = problem(k2, "ftsr", 0.5, s=1, seed=9)
    sigma = (4 * np.array([[1 / 6, -1 / 12], [-1 / 12, 1 / 6]])).tolist()
    plan = {
        "steps": 4000,
        "replicas": 1500,
        "schedule": [4000],
        "criteria": [
            {"kind": "fluctuation", "tolerance": 0.15, "sigma": sigma},
            {"kind": "fluctuation", "tolerance": 0.15},
        ],
    }
    report = verify(P, plan)
    wrong, right = report.entries
    assert not wrong.passed  # injected 4x-scaled covariance must fail
    assert right.passed      # the model's own covariance must pass
    assert not report.overall_pass


def test_verify_surfaces_errors_as_failures(c5):
    P = problem(c5, "ptsr", 1.0, seed=9)  # classified unknown: no manifold
    plan = {"steps": 50, "replicas": 4,
            "criteria": [{"kind": "manifold", "tolerance": 0.1}]}
    report = verify(P, plan)
    assert not report.overall_pass
    assert "NotApplicableError" in report.entries[0].note
