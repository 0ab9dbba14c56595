"""Acceptance suite: one test per stated criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion. Monte Carlo budgets follow the criteria (64 replicas x 1e5 steps
unless a criterion says otherwise); fixed seeds make every verdict
reproducible.

Two checks are expected to fail and are kept as stated:

* criterion 5a pins the reference covariance [[0.5, 0.25], [0.25, 0.5]] for
  the two-urn self-reinforcement model at p=1/2, s=1. That matrix equals
  (1/4s) [(2p+1) I + 2(1-p) A D^-1] without the matrix inversion; the
  stationary covariance of sqrt(t)(Z_t - 1/2) is the inverse form
  [[1/6, -1/12], [-1/12, 1/6]], which the simulation reproduces to ~3%
  (see test_criterion_5a_empirical_matches_stationary_covariance).
* criterion 5b asks for a sqrt(t) covariance match for neighbour
  reinforcement on the 4-cycle at p=0.8, where the smallest drift eigenvalue
  is 2(1-p) = 0.4 < 1/2: the scaled covariance diverges like t^0.2 in the
  alternating direction and no sqrt(t) limit exists to match.
"""
import numpy as np
import pytest

from urnnet.dynamics import ModelConfig, draw_batch, expected_chi
from urnnet.experiments import (
    ensemble,
    fluctuation_estimate,
    manifold_distance,
    rate_fit,
    sync_metrics,
)
from urnnet.graphs import parse_edge_list
from urnnet.spectral import rank_with_tol
from urnnet.theory import Problem, drift_model, fluctuation, sigma_lyapunov, stability

from conftest import (
    C3_DIRECTED_EDGES,
    C4_EDGES,
    C5_EDGES,
    FIG2_EDGES,
    K2_EDGES,
    P3_EDGES,
    grid_edges,
    problem,
    random_connected_graph,
)

STEPS = 100_000
REPLICAS = 64


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def graph(edges, directed=False):
    return parse_edge_list(edges, directed=directed)


_cache = {}


def final_Z(g, code, p, seed, steps=STEPS, replicas=REPLICAS, **kw):
    key = (g.edges, g.directed, code, p, seed, steps, replicas, tuple(sorted(kw.items())))
    if key not in _cache:
        P = problem(g, code, p, seed=seed, **kw)
        es = ensemble(P, replicas=replicas, steps=steps, schedule=[steps], seed=seed)
        _cache[key] = es
    return _cache[key]


# -- 1. universal Friedman limit ------------------------------------------------

@pytest.mark.parametrize("gname,edges", [("C5", C5_EDGES), ("grid3x3", grid_edges(3, 3))])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_criterion_1_ftsnr_universal_limit(gname, edges, p):
    g = graph(edges)
    es = final_Z(g, "ftsnr", p, seed=101)
    sup = np.abs(es.Z[-1] - 0.5).max(axis=1).mean()
    report(f"C1 FTSNR {gname} p={p}", sup <= 0.05,
           f"mean sup-norm |Z - 1/2| = {sup:.4f} (tol 0.05)")


# -- 2. non-bipartite self-reinforcement at p=0 ---------------------------------

def test_criterion_2_ftsr_p0_c5():
    g = graph(C5_EDGES)
    es = final_Z(g, "ftsr", 0.0, seed=102)
    sup = np.abs(es.Z[-1] - 0.5).max(axis=1).mean()
    report("C2 FTSR C5 p=0", sup <= 0.05,
           f"mean sup-norm |Z - 1/2| = {sup:.4f} (tol 0.05)")


# -- 3. bipartite partial synchronization ---------------------------------------

def test_criterion_3_ftsr_p0_c4_partial_sync():
    g = graph(C4_EDGES)
    es = final_Z(g, "ftsr", 0.0, seed=103)
    sm = sync_metrics(problem(g), es, STEPS)
    spread = max(sm.within_v.mean(), sm.within_w.mean())
    frac = np.mean((sm.cross_sum >= 0.97) & (sm.cross_sum <= 1.03))
    ok = spread <= 0.05 and frac >= 0.95
    report("C3 FTSR C4 p=0 partial sync", ok,
           f"mean within-partition spread = {spread:.4f} (tol 0.05); "
           f"cross-sum in [0.97,1.03] for {frac:.0%} of replicas (need 95%)")


# -- 4. Polya synchronization ----------------------------------------------------

def test_criterion_4_polya_sync():
    c5 = graph(C5_EDGES)
    es = final_Z(c5, "ptsr", 0.5, seed=104)
    sm = sync_metrics(problem(c5), es, STEPS)
    spread = sm.global_spread.mean()
    limit_std = sm.zbar.std()
    report("C4a PTSR C5 p=0.5 global sync", spread <= 0.05,
           f"mean global spread = {spread:.4f} (tol 0.05); "
           f"common limit varies across replicas (std {limit_std:.3f}, no acceptance)")

    c4 = graph(C4_EDGES)
    es = final_Z(c4, "ptnr", 0.0, seed=105)
    sm = sync_metrics(problem(c4), es, STEPS)
    spread = max(sm.within_v.mean(), sm.within_w.mean())
    partition_gap = np.abs(sm.zbar_v - sm.zbar_w).mean()
    report("C4b PTNR C4 p=0 partition sync", spread <= 0.05,
           f"mean per-partition spread = {spread:.4f} (tol 0.05); "
           f"partitions free to differ (mean |gap| {partition_gap:.3f})")


# -- 5. fluctuation covariance ----------------------------------------------------

def _k2_fluct_setup():
    g = graph(K2_EDGES)
    P = problem(g, "ftsr", 0.5, s=1, seed=106)
    es = final_Z(g, "ftsr", 0.5, seed=106, s=1, steps=10_000, replicas=5000)
    emp = fluctuation_estimate(es, 10_000)
    return P, emp


def test_criterion_5a_ftsr_k2_reference_matrix():
    P, emp = _k2_fluct_setup()
    rep = fluctuation(P)
    assert rep.rho == pytest.approx(1.0) and rep.rho > 0.5
    stated = np.array([[0.5, 0.25], [0.25, 0.5]])
    rel = np.linalg.norm(emp - stated) / np.linalg.norm(stated)
    # The stated reference equals (1/4s)[(2p+1)I + 2(1-p)AD^-1] with the
    # final matrix inversion dropped; the process actually realises the
    # inverse form (= rep.Sigma = [[1/6,-1/12],[-1/12,1/6]]). Kept as stated;
    # expected to FAIL. The companion test below verifies the true covariance.
    report("C5a FTSR K2 p=0.5 s=1 vs stated [[0.5,0.25],[0.25,0.5]]", rel <= 0.15,
           f"relative Frobenius error = {rel:.3f} (tol 0.15); "
           f"empirical matches the stationary covariance "
           f"{np.round(rep.Sigma, 4).tolist()} instead "
           f"(error {np.linalg.norm(emp - rep.Sigma) / np.linalg.norm(rep.Sigma):.3f})")


def test_criterion_5a_empirical_matches_stationary_covariance():
    P, emp = _k2_fluct_setup()
    rep = fluctuation(P)
    rel = np.linalg.norm(emp - rep.Sigma) / np.linalg.norm(rep.Sigma)
    report("C5a* FTSR K2 p=0.5 s=1 vs stationary covariance", rel <= 0.15,
           f"relative Frobenius error = {rel:.3f} (tol 0.15), "
           f"Sigma = {np.round(rep.Sigma, 4).tolist()}")


def test_criterion_5b_ftnr_c4_p08():
    g = graph(C4_EDGES)
    rep = fluctuation(problem(g, "ftnr", 0.8, s=2, seed=107))
    es = final_Z(g, "ftnr", 0.8, seed=107, s=2, steps=10_000, replicas=5000)
    emp = fluctuation_estimate(es, 10_000)
    v = np.array([1, -1, 1, -1]) / 2.0
    # smallest eigenvalue of I + pAD^-1 + (1-p)(AD^-1)^2 is 2(1-p) = 0.4 < 1/2:
    # no sqrt(t) regime exists (the alternating mode of t Var grows ~ t^0.2,
    # observed below), so there is no closed form to match. Kept as stated;
    # expected to FAIL.
    ok = rep.regime == "sqrt_t" and rep.Sigma is not None
    detail = (f"rho = {rep.rho:.3f} (< 1/2), regime = {rep.regime}; "
              f"scaled variance of the alternating mode at t=1e4 is "
              f"{float(v @ emp @ v):.2f} and still growing, no sqrt(t) limit")
    if ok:
        rel = np.linalg.norm(emp - rep.Sigma) / np.linalg.norm(rep.Sigma)
        ok = rel <= 0.20
        detail = f"relative Frobenius error = {rel:.3f} (tol 0.20)"
    report("C5b FTNR C4 p=0.8 s=2 fluctuation", ok, detail)


# -- 6. decay-rate regression ------------------------------------------------------

def test_criterion_6_decay_rate_c4():
    g = graph(C4_EDGES)
    cfg = ModelConfig.from_code("ftsr", p=0.0, s=2, C=1, t0=100,
                                w0=[25, 50, 75, 50], n=4, seed=108)
    P = Problem(g, cfg)
    es = ensemble(P, replicas=512, steps=STEPS,
                  schedule="geometric(1.25)", seed=108)
    theta = P.spectral.theta
    contrast = np.array([1.0, 0.0, -1.0, 0.0])  # same-partition contrast
    fit = rate_fit(es, "mean-gap", (1000, STEPS), contrast)
    err = abs(fit.slope - (-theta))
    report("C6 FTSR C4 p=0 mean-gap slope", err <= 0.25,
           f"log-log slope = {fit.slope:.3f} vs -theta = {-theta} "
           f"(tol 0.25, stderr {fit.stderr:.3f}, {len(fit.times)} checkpoints)")


# -- 7. directed limits -------------------------------------------------------------

def test_criterion_7_directed_manifold_fig2():
    g = graph(FIG2_EDGES, directed=True)
    es = final_Z(g, "ftsr", 0.0, seed=109)
    Z = es.Z[-1]
    combos = {
        "|Z1+Z2-1|": np.abs(Z[:, 0] + Z[:, 1] - 1),
        "|Z3+Z4-1|": np.abs(Z[:, 2] + Z[:, 3] - 1),
        "|Z4+Z5-1|": np.abs(Z[:, 3] + Z[:, 4] - 1),
        "|Z1+3*Z3-2|": np.abs(Z[:, 0] + 3 * Z[:, 2] - 2),
    }
    means = {k: float(v.mean()) for k, v in combos.items()}
    ok = all(v <= 0.1 for v in means.values())
    report("C7a FTSR fig-2 digraph p=0 limit manifold", ok,
           "; ".join(f"{k} = {v:.4f}" for k, v in means.items()) + " (tol 0.1 each)")
    # cross-check: replica states lie near the one-parameter family itself
    cls = problem(g, "ftsr", 0.0).classification
    dist = manifold_distance(es, cls.predicted_limit, STEPS).mean()
    assert dist <= 0.05, f"mean family residual {dist:.4f}"


def test_criterion_7_directed_odd_cycle():
    g = graph(C3_DIRECTED_EDGES, directed=True)
    es = final_Z(g, "ftsr", 0.0, seed=110)
    sup = np.abs(es.Z[-1] - 0.5).max(axis=1).mean()
    report("C7b FTSR directed C3 p=0", sup <= 0.05,
           f"mean sup-norm |Z - 1/2| = {sup:.4f} (tol 0.05)")


# -- 8. exact-algebra suite -----------------------------------------------------------

ALL_CODES = ("ptsr", "ptnr", "ptsnr", "ftsr", "ftnr", "ftsnr")


def test_criterion_8_exact_algebra():
    graphs = {
        "K2": graph(K2_EDGES), "P3": graph(P3_EDGES), "C4": graph(C4_EDGES),
        "C5": graph(C5_EDGES), "grid3x3": graph(grid_edges(3, 3)),
    }
    # (a) h(1/2 1) = 0 for all six assemblies
    worst = 0.0
    for g in graphs.values():
        for code in ALL_CODES:
            for p in (0.0, 0.3, 0.7, 1.0):
                dm = drift_model(problem(g, code, p))
                worst = max(worst, float(np.max(np.abs(dm(np.full(g.n, 0.5))))))
    report("C8a h(1/2)=0 all assemblies", worst < 1e-12, f"max residual {worst:.1e}")

    # (b) Friedman Jacobian spectra within [-2, 0] on 100 random graphs
    rng = np.random.default_rng(2024)
    worst_hi, worst_lo = -np.inf, np.inf
    for _ in range(100):
        g = random_connected_graph(rng)
        for code in ("ftsr", "ftnr", "ftsnr"):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                eig, stable = stability(drift_model(problem(g, code, p)))
                assert stable
                worst_hi = max(worst_hi, float(eig.real.max()))
                worst_lo = min(worst_lo, float(eig.real.min()))
    ok = worst_hi <= 1e-9 and worst_lo >= -2 - 1e-9
    report("C8b Friedman Jacobian real parts in [-2,0]", ok,
           f"range over 100 graphs x 5 p x 3 modes: [{worst_lo:.6f}, {worst_hi:.2e}]")

    # (c) rank of I + AD^-1: N-1 iff bipartite
    ranks_ok = True
    for name, g in graphs.items():
        P = problem(g)
        M = np.eye(g.n) + P.A / P.deg[None, :]
        bip = P.analysis.bipartition is not None
        ranks_ok &= rank_with_tol(M) == (g.n - 1 if bip else g.n)
    report("C8c rank(I+AD^-1) = N-1 iff bipartite", ranks_ok, "K2/P3/C4/C5/grid3x3")

    # (d) martingale noise covariance is exactly I/(4s)
    gam_ok = True
    for s in (1, 2, 7):
        for code in ("ftsr", "ftnr"):
            rep = fluctuation(problem(graphs["C5"], code, 0.6, s=s))
            gam_ok &= np.array_equal(rep.Gamma, np.eye(5) / (4 * s))
    report("C8d Gamma = I/(4s)", gam_ok, "s in {1,2,7}, both reinforcement flows")

    # (e) Lyapunov fallback matches closed forms on regular graphs
    worst = 0.0
    count = 0
    c6 = graph("0 1\n1 2\n2 3\n3 4\n4 5\n5 0")
    k4 = graph("0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    for g in (graphs["K2"], graphs["C4"], graphs["C5"], c6, k4):
        for code in ("ftsr", "ftnr"):
            for p in (0.3, 0.6, 0.9, 1.0):
                P = problem(g, code, p, s=2)
                try:
                    rep = fluctuation(P)
                except Exception:
                    continue
                if rep.regime != "sqrt_t" or not rep.closed_form:
                    continue
                worst = max(worst, float(np.max(np.abs(rep.Sigma - sigma_lyapunov(P)))))
                count += 1
    ok = worst < 1e-6 and count >= 20
    report("C8e Lyapunov fallback vs closed forms", ok,
           f"max abs deviation {worst:.2e} over {count} regular-graph cases (tol 1e-6)")


# -- 9. sampling-mode equivalence -------------------------------------------------------

def test_criterion_9_sampling_mode_equivalence():
    g = graph(P3_EDGES)
    rng = np.random.default_rng(901)
    ndraws = 100_000
    worst = 0.0
    for case in range(50):
        T = int(rng.integers(6, 60))
        W = rng.integers(1, T, size=3)
        Ts = np.full(3, T)
        p = float(rng.uniform())
        scheme = "ftsr" if case % 2 else "ptsr"
        for mode in ("with", "without"):
            P = problem(g, scheme, p, s=3, t0=T, w0=1, sampling=mode)
            _, _, chi = draw_batch(P, W, Ts, rng=rng, ndraws=ndraws)
            want = expected_chi(P, W, Ts)
            se = chi.std(axis=0, ddof=1) / np.sqrt(ndraws)
            zscores = np.abs(chi.mean(axis=0) - want) / se
            worst = max(worst, float(zscores.max()))
            assert np.all(zscores <= 3.0), (case, mode, zscores)
    report("C9 sampling-mode equivalence", worst <= 3.0,
           f"50 random states x 2 modes x 3 urns, max |z| = {worst:.2f} (limit 3)")
