import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from urnnet import experiments
from urnnet.cli import main
from urnnet.dynamics import checkpoint_index, simulate_ensemble
from urnnet.errors import (
    ConfigError,
    NonPositiveStatisticError,
    NotACheckpointError,
    TooFewReplicasError,
)
from urnnet.experiments import (
    fluctuation_estimate,
    manifold_distance,
    rate_fit,
    sync_metrics,
    verify,
)
from urnnet.graphs import parse_edge_list
from urnnet.theory import LimitSet, limit_set

from conftest import (
    DEFECTIVE_EDGES,
    TWO_SOURCE_2CYCLES_ARCS,
    digraph,
    problem,
    random_connected_graph,
    random_directed_graph,
    random_multi_component_arcs,
)


def ensemble_cov(es, k):
    """Cross-replica covariance of the urn fractions at checkpoint index k."""
    centred = es.Z[k] - es.Z[k].mean(axis=0)
    return centred.T @ centred / (es.Z.shape[1] - 1)


def test_ensemble_deterministic(c5):
    P = problem(c5, "ftsnr", 0.4, seed=21)
    a = simulate_ensemble(P, 400, replicas=8, seed=21)
    b = simulate_ensemble(P, 400, replicas=8, seed=21)
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.Z.mean(axis=1), b.Z.mean(axis=1))
    c = simulate_ensemble(P, 400, replicas=8, seed=22)
    assert not np.array_equal(a.Z, c.Z)


def test_single_replica_degenerates_to_trajectory(c4):
    P = problem(c4, "ftsr", 0.5, seed=5)
    es = simulate_ensemble(P, 300, schedule="geometric(2)", replicas=1)
    tr = simulate_ensemble(P, steps=300, schedule="geometric(2)", replicas=1, seed=5)
    assert np.array_equal(es.times, tr.times)
    assert np.array_equal(es.Z[:, 0, :], tr.Z[:, 0, :])
    assert np.array_equal(es.Z.mean(axis=1), tr.Z[:, 0, :])


def test_zero_time_covariance_is_zero(c4):
    es = simulate_ensemble(problem(c4, "ptsr", 0.5, seed=1), 50, schedule=[0, 50], replicas=16)
    assert np.all(ensemble_cov(es, 0) == 0.0)


def test_sync_metrics_identities(p3):
    # P3 is bipartite with partitions {0,2} and {1} and degrees (1,2,1)
    P = problem(p3, "ftsr", 0.3, seed=11)
    es = simulate_ensemble(P, 200, schedule=[0, 200], replicas=12)
    sm = sync_metrics(P, es.Z[checkpoint_index(es.times, 200)])
    deg = P.deg
    dv = deg[[0, 2]].sum()
    dw = deg[[1]].sum()
    assert np.allclose(dv * sm.zbar_v + dw * sm.zbar_w, deg.sum() * sm.zbar, atol=1e-12)
    assert np.all(sm.within_w == 0.0)  # single-vertex partition has no spread


def test_sync_metrics_all_half(c4):
    Z = np.full((6, 4), 0.5)
    sm = sync_metrics(problem(c4), Z)
    assert np.all(sm.global_spread == 0) and np.all(sm.within_v == 0)
    assert np.allclose(sm.cross_sum, 1.0)


def test_sync_metrics_requires_bipartition(c5):
    P = problem(c5, "ptsr", 0.5)
    es = simulate_ensemble(P, 10, schedule=[10], replicas=4)
    sm = sync_metrics(P, es.Z[-1])
    assert sm.global_spread.shape == (4,)
    assert all(getattr(sm, field) is None for field in (
        "zbar_v", "zbar_w", "within_v", "within_w", "cross_sum"))


def test_manifold_distance_trivial_cases(c4):
    unique = LimitSet(kind="unique_point", particular=np.full(4, 0.5),
                      basis=np.zeros((0, 4)), box=np.zeros((0, 2)))
    Z = np.full((3, 4), 0.5)
    assert np.allclose(manifold_distance(Z, unique), 0.0)

    family = limit_set(problem(c4, "ftsr", 0.0).drift)
    member = np.array([0.2, 0.8, 0.2, 0.8])
    Z = np.broadcast_to(member, (5, 4)).copy()
    assert np.allclose(manifold_distance(Z, family), 0.0, atol=1e-12)
    # orthogonal offset: distance equals the offset norm
    off = np.array([1.0, 1.0, -1.0, -1.0]) / 2
    Z = (member + 0.07 * off)[None, :]
    d = manifold_distance(Z, family)
    assert d[0] == pytest.approx(0.07, abs=1e-12)


def test_manifold_distance_clips_to_box(c4):
    family = limit_set(problem(c4, "ftsr", 0.0).drift)
    outside = np.array([-0.3, 1.3, -0.3, 1.3])  # beyond the a=0 endpoint
    d = manifold_distance(outside[None, :], family)
    assert d[0] == pytest.approx(0.6, abs=1e-12)  # clipped to (0,1,0,1)


def test_rate_fit_exact_power_law():
    times = np.array([10, 30, 100, 300, 1000, 3000])
    R = 4
    Z = np.zeros((len(times), R, 2))
    Z[:, :, 0] = 0.5 + (1.0 / times)[:, None]
    Z[:, :, 1] = 0.5
    fit = rate_fit(times, Z, "mean-gap", (10, 3000), np.array([1.0, -1.0]))
    # statistic is exactly 1/t (the constant 0.5 cancels in the contrast)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    fit = rate_fit(times, Z, "mean-gap", (10, 30), np.array([1.0, -1.0]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert np.isnan(fit.stderr)  # a line through two points leaves no residual


def test_rate_fit_variance_statistic():
    times = np.array([10, 100, 1000, 10000, 100000])
    R = 8
    signs = np.tile([1.0, -1.0], R // 2)
    Z = np.zeros((len(times), R, 2))
    Z[:, :, 0] = 0.5 + signs[None, :] / np.sqrt(times)[:, None]
    Z[:, :, 1] = 0.5
    fit = rate_fit(times, Z, "variance", (10, 100000), np.array([1.0, 0.0]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_rate_fit_rejects_zero_statistic():
    times = np.array([10, 100, 1000])
    Z = np.full((3, 4, 2), 0.5)
    with pytest.raises(NonPositiveStatisticError):
        rate_fit(times, Z, "mean-gap", (10, 1000), np.array([1.0, -1.0]))


def test_rate_fit_variance_with_one_replica_raises_before_computing():
    times = np.array([10, 100, 1000])
    Z = 0.5 + np.arange(6.0).reshape(3, 1, 2) / 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooFewReplicasError, match="need at least 2 replicas"):
            rate_fit(times, Z, "variance", (10, 1000), np.array([1.0, -1.0]))


def test_fluctuation_estimate_properties(c4):
    Z = np.full((7, 4), 0.5)
    assert np.allclose(fluctuation_estimate(Z, 100), 0.0)
    rng = np.random.default_rng(0)
    Z = 0.5 + 0.01 * rng.standard_normal((1, 200, 4))[0]
    S = fluctuation_estimate(Z, 400)
    assert np.allclose(S, S.T)
    assert np.min(np.linalg.eigvalsh(S)) > -1e-12
    with pytest.raises(TooFewReplicasError):
        fluctuation_estimate(Z[:1], 400)


def test_negative_control_independent_urns(c4):
    # self-sampling Polya urns never interact: cross-urn ensemble correlation
    # stays near zero at every checkpoint
    P = problem(c4, "ptsr", 1.0, t0=6, w0=3, seed=17)
    es = simulate_ensemble(P, 2000, schedule="geometric(3)", replicas=600)
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
    es = simulate_ensemble(P, 4000, schedule=[4000], replicas=3000)
    emp = fluctuation_estimate(es.Z[-1], 4000)
    rel = np.linalg.norm(emp - rep.Sigma) / np.linalg.norm(rep.Sigma)
    assert rel < 0.2, rel


def test_variance_statistic_rate_k2(k2):
    # self-reinforcement at p=0 on two urns: the within-partition contrast is
    # trivially zero, but the variance of the balanced functional Z0 + Z1
    # decays like 1/t (exact moment recursion gives slope -1.000)
    P = problem(k2, "ftsr", 0.0, s=2, seed=31)
    es = simulate_ensemble(P, 20_000, schedule="geometric(1.4)", replicas=2048)
    fit = rate_fit(es.times, es.Z, "variance", (100, 20_000), np.array([1.0, 1.0]))
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
    es = simulate_ensemble(P, t, schedule=[t], replicas=4000)
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
    assert report["overall_pass"]
    assert len(report["criteria"]) == 3


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
    assert report["overall_pass"], [e["note"] for e in report["criteria"]]


def test_cross_sum_note_states_the_tolerance_read(c4):
    P = problem(c4, "ftsr", 0.0, seed=13)
    report = verify(P, {"steps": 50, "replicas": 2, "criteria": [
        {"kind": "sync", "scope": "partition", "tolerance": 1, "cross_sum_tolerance": "1"}]})
    (entry,) = report["criteria"]
    assert entry["note"].startswith("mean within-partition spread; cross-sum within 1.0 for ")


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
    wrong, right = report["criteria"]
    assert not wrong["pass"]  # injected 4x-scaled covariance must fail
    assert right["pass"]      # the model's own covariance must pass
    assert not report["overall_pass"]


def test_verify_surfaces_errors_as_failures(c5):
    P = problem(c5, "ptsr", 1.0, seed=9)  # classified unknown: no manifold
    plan = {"steps": 50, "replicas": 4,
            "criteria": [{"kind": "manifold", "tolerance": 0.1}]}
    report = verify(P, plan)
    assert not report["overall_pass"]
    assert "NotApplicableError" in report["criteria"][0]["note"]


def test_verify_lets_programming_errors_propagate(c5, monkeypatch):
    # only an UrnnetError becomes a failed entry; a bug must not pass for a
    # statistical failure
    def broken(*args):
        raise TypeError("bug")
    monkeypatch.setattr(experiments, "manifold_distance", broken)
    P = problem(c5, "ftsnr", 0.5, seed=9)
    plan = {"steps": 50, "replicas": 4,
            "criteria": [{"kind": "manifold", "tolerance": 0.1}]}
    with pytest.raises(TypeError, match="bug"):
        verify(P, plan)


def test_verify_checks_every_budget_before_any_ensemble_runs(c5, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("an ensemble ran before the plan was checked")
    monkeypatch.setattr(experiments, "simulate_ensemble", no_run)
    P = problem(c5, "ftsnr", 0.5, seed=9)
    for bad in ({"steps": "many"}, {"replicas": 0}, {"seed": -1}, {"schedule": [1, "x"]},
                {"steps": 2**62}):
        plan = {"steps": 50, "replicas": 4,
                "criteria": [{"kind": "convergence"}, {"kind": "manifold", **bad}]}
        with pytest.raises(ConfigError):
            verify(P, plan)


def test_verify_runs_one_ensemble_per_checked_budget(c5, monkeypatch):
    # the stream does not depend on the schedule, so an omitted schedule,
    # the default written out and its times written out share one ensemble
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["schedule"])
        return simulate_ensemble(*args, **kwargs)
    monkeypatch.setattr(experiments, "simulate_ensemble", counting)
    P = problem(c5, "ftsnr", 0.5, seed=9)
    plan = {"steps": 50, "replicas": 4,
            "criteria": [{"kind": "convergence", "tolerance": 1},
                         {"kind": "manifold", "tolerance": 1, "schedule": "geometric(1.2)"},
                         {"kind": "sync", "tolerance": 1, "schedule": [
                             1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 22, 26, 31, 38, 46]}]}
    assert verify(P, plan)["overall_pass"]
    assert len(calls) == 1


def test_readme_plan_and_default_plan_pass_the_plan_checks(c4):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme_plan = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    # one model per default criteria set: a unique point, partial sync, Polya
    # sync, the two-parameter family and 'unknown'
    for code, p in [("ftsr", 0.5), ("ftsr", 0.0), ("ptsr", 0.5), ("ptnr", 0.0), ("ptsr", 1.0)]:
        P = problem(c4, code, p)
        for plan in (readme_plan, experiments.default_plan(P)):
            for crit in plan["criteria"]:
                experiments._criterion(crit, plan, P)


def test_partition_sync_without_bipartition_fails_before_its_ensemble(c5, monkeypatch):
    # the graph's bipartition is known when the plan is read, so the entry
    # needs no run; its bytes are those of the check after a run
    def no_run(*args, **kwargs):
        raise AssertionError("an ensemble ran for a criterion that cannot hold")
    monkeypatch.setattr(experiments, "simulate_ensemble", no_run)
    P = problem(c5, "ftsnr", 0.5, seed=9)
    report = verify(P, {"steps": 100, "replicas": 4,
                        "criteria": [{"kind": "sync", "scope": "partition"}]})
    assert report == {"overall_pass": False, "criteria": [
        {"criterion": "sync-partition@t=100", "theoretical": None, "empirical": None,
         "tolerance": 0.05, "pass": False,
         "note": "NoBipartitionError: graph admits no bipartition"}]}


def test_off_schedule_at_fails_before_its_ensemble(c5, monkeypatch):
    # the checked budget holds the snapshot times, so only the budget that an
    # on-schedule criterion reads runs; the note is the one checkpoint_index gives
    steps = []

    def counting(*args, **kwargs):
        steps.append(args[1])
        return simulate_ensemble(*args, **kwargs)
    monkeypatch.setattr(experiments, "simulate_ensemble", counting)
    P = problem(c5, "ftsnr", 0.5, seed=9)
    kinds = ("convergence", "sync", "manifold", "fluctuation")
    report = verify(P, {"steps": 400, "replicas": 4, "schedule": "all", "criteria": [
        {"kind": "convergence", "steps": 50, "tolerance": 1},
        *({"kind": kind, "at": 401} for kind in kinds)]})
    assert steps == [50]
    note = f"NotACheckpointError: t=401 is not a checkpoint (have {list(range(401))})"
    assert [(e["criterion"], e["pass"], e["note"]) for e in report["criteria"][1:]] == [
        (f"{label}@t=401", False, note) for label in ("convergence", "sync-global", "manifold",
                                                      "fluctuation")]
    with pytest.raises(NotACheckpointError) as exc:
        checkpoint_index(simulate_ensemble(P, 400, schedule="all").times, 401)
    assert f"{type(exc.value).__name__}: {exc.value}" == note


def test_variance_rate_with_one_replica_fails_before_its_ensemble(c4, monkeypatch, capsys):
    # a variance needs two replicas, which the budget shows before any run
    def no_run(*args, **kwargs):
        raise AssertionError("an ensemble ran for a criterion that cannot hold")
    monkeypatch.setattr(experiments, "simulate_ensemble", no_run)
    P = problem(c4, "ftsr", 0.0, seed=9)
    report = verify(P, {"steps": 300, "replicas": 1, "criteria": [
        {"kind": "rate", "contrast": [1, -1, 1, -1], "statistic": "variance"}]})
    assert report == {"overall_pass": False, "criteria": [
        {"criterion": "rate[variance]", "theoretical": None, "empirical": None,
         "tolerance": 0.05, "pass": False,
         "note": "TooFewReplicasError: need at least 2 replicas for a variance"}]}
    assert capsys.readouterr().err == ""


def test_failed_entries_are_named_as_evaluated_ones(c5):
    # two failed criteria of one kind stay apart in the report
    P = problem(c5, "ftsnr", 0.5, seed=9)
    report = verify(P, {"steps": 100, "replicas": 4, "criteria": [
        {"kind": "sync", "scope": "partition", "at": 50},
        {"kind": "sync", "scope": "partition"},
        {"kind": "rate", "contrast": [1, -1, 0, 0, 0]},
        {"kind": "convergence", "at": 9}]})
    assert [e["criterion"] for e in report["criteria"]] == [
        "sync-partition@t=50", "sync-partition@t=100", "rate[mean-gap]", "convergence@t=9"]
    assert [e["note"].split(":")[0] for e in report["criteria"]] == [
        "NoBipartitionError", "NoBipartitionError", "AssumptionViolatedError",
        "NotACheckpointError"]


def test_variance_rate_default_is_the_variance_exponent(k2):
    # K2 ftsr p = 0: theta = 2, but the variance decays like t^-min(theta, 1)
    P = problem(k2, "ftsr", 0.0, seed=3)
    report = verify(P, {"steps": 300, "replicas": 3, "criteria": [
        {"kind": "rate", "contrast": [1, 1], "statistic": "variance"}]})
    (entry,) = report["criteria"]
    assert entry["theoretical"] == -1.0, entry


def test_rate_default_on_a_defective_spectrum_fails_before_its_ensemble(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("an ensemble ran for a criterion with no theory")
    monkeypatch.setattr(experiments, "simulate_ensemble", no_run)
    P = problem(parse_edge_list(DEFECTIVE_EDGES, directed=True), "ftsr", 0.0, seed=3)
    report = verify(P, {"steps": 300, "replicas": 3, "criteria": [
        {"kind": "rate", "contrast": [1, -1, 0, 0]}]})
    (entry,) = report["criteria"]
    assert (entry["theoretical"], entry["pass"]) == (None, False)
    assert entry["note"] == "AssumptionViolatedError: matrix is not diagonalizable"


def test_rate_default_of_a_repeated_zero_is_positive_zero():
    # the variance exponent lambda_0 + lambda_1 of a double zero is 0
    P = problem(digraph(TWO_SOURCE_2CYCLES_ARCS), "ftsr", 0.0, seed=3)
    report = verify(P, {"steps": 300, "replicas": 3, "criteria": [
        {"kind": "rate", "contrast": [1, -1, 0, 0, 0], "statistic": "variance"}]})
    (entry,) = report["criteria"]
    assert entry["theoretical"] == 0.0 and str(entry["theoretical"]) == "0.0", entry


def test_rate_default_agrees_with_analyze(tmp_path, monkeypatch, capsys):
    # verify's default target is minus the exponent analyze prints for the
    # statistic; where analyze prints none, the entry carries its reason.
    # The fit is stubbed: a contrast can vanish on every replica (two urns
    # fed by one source), and the target is read before the fit.
    monkeypatch.setattr(experiments, "rate_fit",
                        lambda *args: experiments.RateFit(0.0, 0.0, np.array([1, 2])))
    rng = np.random.default_rng(2029)
    graphs = [make(rng) for make in (random_connected_graph, random_directed_graph,
                                     lambda r: digraph(random_multi_component_arcs(r)))
              for _ in range(40)]
    seen = set()
    for k, g in enumerate(graphs):
        path = tmp_path / f"g{k}.edges"
        path.write_text("\n".join(f"{u} {v}" for u, v in g.edges) + "\n")
        plan = {"steps": 300, "replicas": 3, "criteria": [
            {"kind": "rate", "contrast": [1, -1] + [0] * (g.n - 2), "statistic": statistic}
            for statistic in ("mean-gap", "variance")]}
        for code, p in (("ftsr", 0.0), ("ftnr", 1.0), ("ftsr", 0.5), ("ptsr", 0.5)):
            args = ["analyze", "--graph", str(path), "--model", code, "--p", str(p)]
            assert main(args + ["--directed"] * g.directed) == 0
            decay = json.loads(capsys.readouterr().out).get("decay")
            entries = verify(problem(g, code, p, seed=k), plan)["criteria"]
            case = (g.edges, g.directed, code, p, decay)
            for entry, key in zip(entries, ("mean_exponent", "variance_exponent")):
                if decay is None:
                    assert entry["note"].startswith("AssumptionViolatedError"), case
                    seen.add("none")
                elif "unavailable" in decay:
                    assert entry["note"] == "NotApplicableError: " + decay["unavailable"], case
                    seen.add("unavailable")
                else:
                    assert entry["theoretical"] == pytest.approx(-decay[key], rel=1e-11), case
                    seen.add("exponents")
    assert seen == {"none", "unavailable", "exponents"}
