import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnnet.dynamics import ModelConfig, expected_chi
from urnnet.errors import AssumptionViolatedError, NotApplicableError
from urnnet.theory import (
    Problem,
    classify,
    decay_exponents,
    drift_model,
    fluctuation,
    limit_set,
    noise_covariance,
    sigma_lyapunov,
    stability,
)

from conftest import problem, random_connected_graph

ALL_CODES = ("ptsr", "ptnr", "ptsnr", "ftsr", "ftnr", "ftsnr")


# --- drift assembly -------------------------------------------------------

def test_ftsr_k2_p0_drift(k2):
    dm = drift_model(problem(k2, "ftsr", 0.0))
    assert np.allclose(dm.b, 1.0)
    assert np.allclose(dm.K, [[-1, -1], [-1, -1]])
    assert np.allclose(dm(np.array([0.3, 0.7])), 0.0)
    eig, stable = stability(dm)
    assert np.allclose(sorted(eig.real), [-2.0, 0.0]) and stable


def test_ftsr_p1_jacobian_is_minus_2I(c5):
    dm = drift_model(problem(c5, "ftsr", 1.0))
    assert np.allclose(dm.K, -2 * np.eye(5))


def test_ptsr_p1_zero_drift(c4):
    dm = drift_model(problem(c4, "ptsr", 1.0))
    assert np.allclose(dm.K, 0.0) and np.allclose(dm.b, 0.0)


@pytest.mark.parametrize("code", ALL_CODES)
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_half_is_always_a_zero_of_h(code, p, c4, c5, p3):
    for g in (c4, c5, p3):
        dm = drift_model(problem(g, code, p))
        assert np.max(np.abs(dm(np.full(g.n, 0.5)))) < 1e-12


@pytest.mark.parametrize("code", ("ftsr", "ftnr", "ftsnr"))
def test_friedman_columns_of_minus_K_sum_to_two(code, c4, p3, grid33):
    for g in (c4, p3, grid33):
        dm = drift_model(problem(g, code, 0.37))
        assert np.allclose((-dm.K).sum(axis=0), 2.0, atol=1e-12)


def test_ftsr_p0_equals_ftnr_p1(c5, p3):
    for g in (c5, p3):
        a = drift_model(problem(g, "ftsr", 0.0))
        b = drift_model(problem(g, "ftnr", 1.0))
        assert np.allclose(a.K, b.K) and np.allclose(a.b, b.b)


def test_drift_consistent_with_sampling_mean(c4, p3, fig2):
    # h(z) = E[chi | z] (eta I + kappa A) Omega^-1 / s - z, assembled from the
    # dynamics module, must agree with the closed-form matrices
    rng = np.random.default_rng(7)
    for g in (c4, p3, fig2):
        for code in ALL_CODES:
            P = problem(g, code, p=float(rng.uniform()), s=3, t0=50)
            dp = P.params
            dm = drift_model(P)
            W = rng.integers(1, 50, size=g.n)
            T = np.full(g.n, 50)
            z = W / T
            flow = (dp.eta * np.eye(g.n) + dp.kappa * P.A) / dp.omega[None, :]
            direct = expected_chi(P, W, T) @ flow / P.cfg.s - z
            assert np.allclose(direct, dm(z), atol=1e-12), (code, g.n)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["ftsr", "ftnr", "ftsnr"]),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
def test_friedman_jacobian_real_parts_in_band(seed, code, p):
    g = random_connected_graph(np.random.default_rng(seed))
    eig, stable = stability(drift_model(problem(g, code, p)))
    assert stable
    assert np.all(eig.real >= -2 - 1e-9) and np.all(eig.real <= 1e-9)


# --- limit sets ----------------------------------------------------------

def test_limit_unique_point_ftsnr_c5(c5):
    ls = limit_set(drift_model(problem(c5, "ftsnr", 0.8)))
    assert ls.kind == "unique_point"
    assert np.allclose(ls.particular, 0.5)


def test_limit_family_ftsr_p0_c4(c4):
    ls = limit_set(drift_model(problem(c4, "ftsr", 0.0)))
    assert ls.kind == "one_parameter"
    v = ls.basis[0] / ls.basis[0][0]
    assert np.allclose(v, [1, -1, 1, -1], atol=1e-10)  # alternates by partition
    lo, hi = ls.box[0]
    ends = {tuple(np.round(ls.point([c]), 9)) for c in (lo, hi)}
    assert ends == {(0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0)}


def test_limit_family_fig2(fig2):
    ls = limit_set(drift_model(problem(fig2, "ftsr", 0.0)))
    assert ls.kind == "one_parameter"

    def family(a):
        return np.array([3 * a - 1, 2 - 3 * a, 1 - a, a, 1 - a])

    for a in (1 / 3, 0.45, 2 / 3):
        zt = family(a)
        c = (zt - ls.particular) @ ls.basis.T
        assert np.linalg.norm(zt - ls.point(c)) < 1e-10
        assert ls.box[0, 0] - 1e-9 <= c[0] <= ls.box[0, 1] + 1e-9
    # the box endpoints are exactly the extreme family members a = 1/3, 2/3
    ends = {tuple(np.round(ls.point([b]), 9)) for b in ls.box[0]}
    want = {tuple(np.round(family(a), 9)) for a in (1 / 3, 2 / 3)}
    assert ends == want


def test_polya_limit_families(c4, c5):
    # self/neighbour/self+neighbour reinforcement on regular graphs all leave
    # the all-equal diagonal; neighbour reinforcement at p=0 on a bipartite
    # graph leaves a partition-constant two-parameter family
    for code, p, g, dim in (("ptsr", 0.5, c5, 1), ("ptnr", 0.5, c5, 1),
                            ("ptsnr", 0.0, c5, 1), ("ptsr", 0.0, c4, 1),
                            ("ptnr", 0.0, c4, 2)):
        ls = limit_set(drift_model(problem(g, code, p)))
        assert ls.dimension == dim, (code, p)
        if dim == 1:
            v = ls.basis[0]
            assert np.allclose(v, v[0], atol=1e-10)  # direction ~ all-ones
        else:
            # span contains partition indicators
            V = np.zeros(g.n); V[[0, 2]] = 1.0
            resid = V - (V @ ls.basis.T) @ ls.basis
            assert np.linalg.norm(resid) < 1e-10


# --- classification -------------------------------------------------------

def test_classify_examples(c4, c5):
    r = classify(problem(c5, "ftsr", 0.5))
    assert r.applicable_theorem == "friedman_unique"
    assert np.allclose(r.predicted_limit.particular, 0.5)
    r = classify(problem(c5, "ftsr", 0.0))
    assert r.applicable_theorem == "friedman_unique"  # non-bipartite
    r = classify(problem(c4, "ftsr", 0.0))
    assert r.applicable_theorem == "friedman_bipartite_partial_sync"
    r = classify(problem(c4, "ftnr", 1.0))
    assert r.applicable_theorem == "friedman_bipartite_partial_sync"
    r = classify(problem(c4, "ptnr", 0.0))
    assert r.applicable_theorem == "polya_bipartite_two_param"
    assert r.predicted_limit.dimension == 2
    r = classify(problem(c5, "ptsr", 0.5))
    assert r.applicable_theorem == "polya_regular_sync"
    r = classify(problem(c5, "ptsr", 1.0))
    assert r.applicable_theorem == "unknown"  # independent urns: no claim
    assert r.predicted_limit is None


def test_classify_requires_uniform_t0_for_partial_sync(c4):
    cfg = ModelConfig.from_code("ftsr", p=0.0, s=2, C=1, t0=[4, 6, 4, 6],
                                w0=[2, 3, 2, 3], n=4)
    r = classify(Problem(c4, cfg))
    assert r.applicable_theorem == "unknown"
    assert ("uniform_t0", False) in r.assumptions_checked


def test_classify_directed(fig2, c3_directed):
    for g, code, p, want in (
        (c3_directed, "ftsr", 0.0, "directed_friedman_unique"),  # odd cycle
        (c3_directed, "ftsr", 0.5, "directed_friedman_unique"),
        (fig2, "ftsr", 0.5, "directed_friedman_unique"),
        (fig2, "ftsr", 0.0, "directed_general"),  # leading SCC is a 2-cycle
        (fig2, "ftnr", 1.0, "directed_general"),
        (fig2, "ptsr", 0.5, "unknown"),
    ):
        r = classify(problem(g, code, p))
        assert r.applicable_theorem == want, (g.n, code, p)


def test_classify_unique_iff_limit_set_is_point(c4, c5, p3, grid33):
    for g in (c4, c5, p3, grid33):
        for code in ("ftsr", "ftnr", "ftsnr"):
            for p in (0.0, 0.25, 0.75, 1.0):
                r = classify(problem(g, code, p))
                if r.applicable_theorem == "friedman_unique":
                    assert r.predicted_limit.kind == "unique_point"
                    assert np.allclose(r.predicted_limit.particular, 0.5)


# --- fluctuation covariances ----------------------------------------------

def moment_recursion_cov(P, steps):
    """Exact propagation of E[Z_t] and E[Z_t^T Z_t] (with-replacement).

    Independent oracle for the stationary covariance: applies the one-step
    conditional mean and the per-urn sampling variance to the joint moments,
    with no reference to the drift/Lyapunov machinery under test.
    """
    g, cfg, A, deg = P.g, P.cfg, P.A, P.deg
    n = g.n
    one = np.ones(n)
    dp = P.params
    R = (dp.eta * np.eye(n) + dp.kappa * A)
    Ptil = cfg.p * np.eye(n) + (1 - cfg.p) * (A / deg[None, :])
    Wmix = cfg.p * np.eye(n) + (1 - cfg.p) * (A / deg[None, :]).T
    b0, sg = (0.0, 1.0) if cfg.scheme == "polya" else (1.0, -1.0)
    s, C = float(cfg.s), float(cfg.C)
    m = cfg.W0 / cfg.T0
    M2 = np.outer(m, m)
    T = cfg.T0.astype(float)
    for _ in range(steps):
        Tn = T + C * s * dp.omega
        Bt = np.diag(T / Tn)
        RC = R @ np.diag(C / Tn)
        EZtE = s * (b0 * np.outer(m, one) + sg * (M2 @ Ptil))
        EEtE = s * s * (b0 * b0 * np.outer(one, one)
                        + b0 * sg * (np.outer(one, m @ Ptil) + np.outer(Ptil.T @ m, one))
                        + Ptil.T @ M2 @ Ptil)
        d2 = np.diag(M2)
        gam = (s * (Wmix @ m) + s * (s - 1) * (Wmix @ d2)
               - s * s * np.einsum("jl,lk,jk->j", Wmix, M2, Wmix))
        m_new = m @ Bt + (s * (b0 * one + sg * (m @ Ptil))) @ RC
        M2 = (Bt @ M2 @ Bt + Bt @ EZtE @ RC + RC.T @ EZtE.T @ Bt
              + RC.T @ EEtE @ RC + RC.T @ np.diag(gam) @ RC)
        m, T = m_new, Tn
    return m, M2 - np.outer(m, m)


def test_sigma_k2_ftsr_matches_exact_moments(k2):
    P = problem(k2, "ftsr", 0.5, s=1)
    rep = fluctuation(P)
    assert rep.regime == "sqrt_t" and rep.rho == pytest.approx(1.0)
    assert np.allclose(rep.Sigma, [[1 / 6, -1 / 12], [-1 / 12, 1 / 6]], atol=1e-12)
    t = 20_000
    _, V = moment_recursion_cov(P, t)
    assert np.max(np.abs(t * V - rep.Sigma)) < 5e-3 * np.max(np.abs(rep.Sigma))


def test_sigma_ftnr_matches_exact_moments(c4):
    P = problem(c4, "ftnr", 0.5, s=2)
    rep = fluctuation(P)
    assert rep.regime == "sqrt_t" and rep.closed_form
    t = 20_000
    _, V = moment_recursion_cov(P, t)
    assert np.max(np.abs(t * V - rep.Sigma)) < 1e-2 * np.max(np.abs(rep.Sigma))


def test_sigma_ftsr_p1_single_urn_rate(k2):
    # independent urns: stationary scaled variance 1/(12 s) per urn
    for s in (1, 3):
        rep = fluctuation(problem(k2, "ftsr", 1.0, s=s))
        assert np.allclose(rep.Sigma, np.eye(2) / (12 * s), atol=1e-12)


def test_gamma_is_quarter_s_identity(c4, c5):
    for g, code, s in ((c4, "ftnr", 2), (c5, "ftsr", 5)):
        rep = fluctuation(problem(g, code, 0.6, s=s))
        assert np.allclose(rep.Gamma, np.eye(g.n) / (4 * s), atol=1e-15)


def test_lyapunov_matches_closed_forms(k2, c4, c5):
    checked = 0
    for g in (k2, c4, c5):
        for code in ("ftsr", "ftnr"):
            for p in (0.35, 0.6, 0.9, 1.0):
                P = problem(g, code, p, s=2)
                try:
                    rep = fluctuation(P)
                except NotApplicableError:
                    continue  # e.g. FTNR p=1 on a bipartite graph: no unique limit
                if rep.regime != "sqrt_t":
                    continue
                assert rep.closed_form
                assert np.max(np.abs(rep.Sigma - sigma_lyapunov(P))) < 1e-6
                checked += 1
    assert checked >= 12


def test_sigma_psd_symmetric(c4, c5, grid33):
    for g in (c5, grid33):
        for code in ("ftsr", "ftnr", "ftsnr"):
            rep = fluctuation(problem(g, code, 0.7, s=2))
            if rep.Sigma is None:
                continue
            assert np.allclose(rep.Sigma, rep.Sigma.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(0.5 * (rep.Sigma + rep.Sigma.T))) > -1e-10


def test_fluctuation_critical_regime(c4):
    rep = fluctuation(problem(c4, "ftsr", 0.25, s=2))  # rho = 2p = 1/2 on a bipartite graph
    assert rep.regime == "sqrt_t_over_log_t"
    v = np.array([1, -1, 1, -1]) / 2
    assert np.allclose(rep.SigmaTilde, np.outer(v, v) / 8, atol=1e-12)


def test_fluctuation_subcritical_reports_not_applicable(c4):
    rep = fluctuation(problem(c4, "ftnr", 0.8, s=2))
    assert rep.rho == pytest.approx(0.4)
    assert rep.regime == "not_applicable"
    assert rep.Sigma is None


def test_fluctuation_requires_unique_friedman_limit(c4):
    with pytest.raises(NotApplicableError):
        fluctuation(problem(c4, "ptsr", 0.5))
    with pytest.raises(NotApplicableError):
        fluctuation(problem(c4, "ftsr", 0.0))  # partial sync


def test_noise_covariance_shapes(c4):
    # self-reinforcement noise is isotropic; neighbour reinforcement pushes
    # the noise through the transfer matrix
    P = problem(c4, "ftnr", 0.3, s=2)
    ADi = P.A / P.deg[None, :]
    s = 2
    assert np.allclose(noise_covariance(problem(c4, "ftsr", 0.3, s=s)),
                       np.eye(4) / (4 * s))
    assert np.allclose(noise_covariance(P), ADi.T @ ADi / (4 * s))


# --- decay exponents ------------------------------------------------------

def test_decay_examples(k2, c4, p3):
    d = decay_exponents(problem(c4).spectral)
    assert d.mean_exponent == pytest.approx(1.0)
    assert d.variance_exponent == pytest.approx(1.0) and d.log_correction
    d = decay_exponents(problem(k2).spectral)
    assert d.mean_exponent == pytest.approx(2.0)
    assert d.variance_exponent == pytest.approx(1.0) and not d.log_correction
    assert decay_exponents(problem(p3).spectral).mean_exponent == pytest.approx(1.0)


def test_decay_requires_bipartite(c5):
    with pytest.raises(AssumptionViolatedError):
        decay_exponents(problem(c5).spectral)
