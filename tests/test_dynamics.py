import numpy as np
import pytest

from urnnet.dynamics import (
    StepKernel,
    draw_batch,
    expected_chi,
    parse_schedule,
    simulate_ensemble,
)
from urnnet.errors import ConfigError
from urnnet.theory import Problem

from conftest import in_neighbours_oracle, problem


def run(P, steps, schedule=None, rng=None):
    """Single-replica snapshots (times, W, T, Z) with Z of shape (K, n)."""
    ens = simulate_ensemble(P, steps, schedule=schedule, replicas=1, rng=rng)
    return ens.times, ens.W[:, 0, :], ens.T, ens.Z[:, 0, :]


# --- configuration validation -------------------------------------------------

def test_config_rejects_monochrome_urn(k2):
    with pytest.raises(ConfigError):
        problem(k2, "ftsr", p=0.5, t0=4, w0=4)
    with pytest.raises(ConfigError):
        problem(k2, "ftsr", p=0.5, t0=4, w0=0)


def test_config_rejects_oversampling_without_replacement(k2):
    with pytest.raises(ConfigError):
        problem(k2, "ftsr", p=0.5, s=10, t0=4, sampling="without")


# --- derived parameters -------------------------------------------------------

def test_derive_params_examples(c4, p3, k2):
    dp = problem(c4, "ftsr", p=0.3).params
    assert (dp.eta, dp.kappa) == (1, 0) and dp.omega.tolist() == [1, 1, 1, 1]
    dp = problem(p3, "ptnr", p=0.3).params
    assert (dp.eta, dp.kappa) == (0, 1) and dp.omega.tolist() == [1, 2, 1]
    dp = problem(k2, "ftsnr", p=0.3).params
    assert (dp.eta, dp.kappa) == (1, 1) and dp.omega.tolist() == [2, 2]


def test_derive_params_directed_in_degrees(fig2):
    dp = problem(fig2, "ftnr", p=0.3).params
    assert dp.omega.tolist() == [1, 1, 2, 1, 1]


def test_problem_rejects_config_for_other_graph(c4, c5):
    with pytest.raises(ConfigError):
        Problem(c5, problem(c4).cfg)


# --- expected reinforcement oracle --------------------------------------------

def oracle_expected_chi(Z, g, scheme, p, s):
    """Literal per-urn mixture mean, independent of the matrix assembly."""
    out = np.empty(g.n)
    for j in range(g.n):
        nbrs = in_neighbours_oracle(g, j)
        mix = p * Z[j] + (1 - p) * sum(Z[l] for l in nbrs) / len(nbrs)
        out[j] = s * mix if scheme == "polya" else s * (1 - mix)
    return out


def test_expected_chi_half_symmetry(c5):
    P = problem(c5, "ftnr", p=0.37, s=6)
    # W0/T0 = 1/2 everywhere
    assert np.allclose(expected_chi(P, P.cfg.W0, P.cfg.T0), 3.0)


def test_expected_chi_p3_polya(p3):
    P = problem(p3, "ptsr", p=0.0, s=5, t0=10)
    W, T = np.array([10, 0, 10]), np.array([10, 10, 10])
    # Z = (1, 0, 1): neighbour averages (0, 1, 0)
    assert np.allclose(expected_chi(P, W, T), [0.0, 5.0, 0.0])
    assert np.allclose(expected_chi(P, W, T),
                       oracle_expected_chi(W / T, p3, "polya", 0.0, 5))


def test_expected_chi_pure_self_sampling(c5):
    # p=1 Polya: each urn sees only its own composition
    P = problem(c5, "ptsr", p=1.0, s=4, t0=10)
    W, T = np.array([1, 3, 5, 7, 9]), np.full(5, 10)
    assert np.allclose(expected_chi(P, W, T), 4 * W / T)


def test_expected_chi_k2_friedman(k2):
    P = problem(k2, "ftsr", p=0.0, s=10, t0=10)
    W, T = np.array([3, 7]), np.array([10, 10])
    assert np.allclose(expected_chi(P, W, T), [3.0, 7.0])


def test_expected_chi_c4_friedman_matches_oracle(c4):
    P = problem(c4, "ftsr", p=0.5, s=2, t0=10)
    W, T = np.array([9, 9, 1, 1]), np.array([10, 10, 10, 10])
    want = oracle_expected_chi(W / T, c4, "friedman", 0.5, 2)
    assert np.allclose(expected_chi(P, W, T), want)
    # the state is symmetric under the (0<->1, 2<->3) mirror, so the mean is too
    assert want[0] == pytest.approx(want[1]) and want[2] == pytest.approx(want[3])


def test_expected_chi_mode_independent(p3):
    W, T = np.array([3, 11, 6]), np.array([20, 20, 20])
    a = expected_chi(problem(p3, "ftsr", p=0.4, s=3, t0=20, sampling="with"), W, T)
    b = expected_chi(problem(p3, "ftsr", p=0.4, s=3, t0=20, sampling="without"), W, T)
    assert np.allclose(a, b)


# --- sampling -----------------------------------------------------------------

def test_all_white_draw_is_degenerate(p3):
    P = problem(p3, "ptsr", p=0.3, s=4, t0=10)
    W, T = np.array([10, 10, 10]), np.array([10, 10, 10])
    _, Y, chi = draw_batch(P, W, T, rng=1, ndraws=200)
    assert np.all(Y == 4)
    assert np.all(chi == 4)  # Polya: chi = Y


def test_chi_flip_for_friedman(p3):
    P = problem(p3, "ftsr", p=0.3, s=4, t0=10)
    W, T = np.array([10, 10, 10]), np.array([10, 10, 10])
    _, Y, chi = draw_batch(P, W, T, rng=1, ndraws=50)
    assert np.all(chi == 4 - Y)


def test_source_distribution_p1_and_p0(p3):
    W, T = np.array([5, 5, 5]), np.array([10, 10, 10])
    src, _, _ = draw_batch(problem(p3, "ftsr", p=1.0), W, T, rng=3, ndraws=500)
    assert np.all(src == np.arange(3)[None, :])
    src, _, _ = draw_batch(problem(p3, "ftsr", p=0.0), W, T, rng=3, ndraws=500)
    assert np.all(src[:, 0] == 1) and np.all(src[:, 2] == 1)
    assert set(np.unique(src[:, 1])) == {0, 2}


def oracle_mixture_variance(Z, g, p, s):
    """Analytic per-urn sampling variance for with-replacement draws."""
    out = np.empty(g.n)
    for j in range(g.n):
        nbrs = in_neighbours_oracle(g, j)
        weights = [(p, Z[j])] + [((1 - p) / len(nbrs), Z[l]) for l in nbrs]
        ey = sum(w * s * z for w, z in weights)
        ey2 = sum(w * (s * z * (1 - z) + (s * z) ** 2) for w, z in weights)
        out[j] = ey2 - ey ** 2
    return out


def test_mc_mean_matches_expected_chi_both_modes(p3):
    W, T = np.array([3, 11, 6]), np.array([20, 20, 20])
    ndraws = 100_000
    for mode in ("with", "without"):
        P = problem(p3, "ftsr", p=0.35, s=3, t0=20, sampling=mode)
        _, _, chi = draw_batch(P, W, T, rng=42, ndraws=ndraws)
        want = expected_chi(P, W, T)
        se = chi.std(axis=0, ddof=1) / np.sqrt(ndraws)
        assert np.all(np.abs(chi.mean(axis=0) - want) <= 3 * se), mode


def test_martingale_difference_mean_vanishes(c4):
    W, T = np.array([2, 5, 7, 3]), np.array([10, 10, 10, 10])
    P = problem(c4, "ptnr", p=0.6, s=2, t0=10)
    _, _, chi = draw_batch(P, W, T, rng=9, ndraws=200_000)
    resid = chi.mean(axis=0) - expected_chi(P, W, T)
    se = chi.std(axis=0, ddof=1) / np.sqrt(200_000)
    assert np.all(np.abs(resid) <= 3 * se)


def test_sampling_laws_match_reference_pmfs(p3):
    # p=1 makes each urn sample from itself, so Y follows a plain binomial /
    # hypergeometric law with the urn's own composition
    from scipy import stats

    W, T = np.array([7, 7, 7]), np.array([12, 12, 12])
    ndraws = 200_000
    for mode, dist in (("with", stats.binom(5, 7 / 12)),
                       ("without", stats.hypergeom(12, 7, 5))):
        P = problem(p3, "ptsr", p=1.0, s=5, t0=12, w0=7, sampling=mode)
        _, Y, _ = draw_batch(P, W, T, rng=13, ndraws=ndraws)
        counts = np.bincount(Y.ravel(), minlength=6) / (3 * ndraws)
        pmf = dist.pmf(np.arange(6))
        se = np.sqrt(pmf * (1 - pmf) / (3 * ndraws))
        assert np.all(np.abs(counts - pmf) <= 4 * se + 1e-12), mode


def test_with_replacement_variance_matches_mixture(p3):
    W, T = np.array([4, 13, 9]), np.array([20, 20, 20])
    P = problem(p3, "ftsr", p=0.5, s=4, t0=20)
    _, Y, _ = draw_batch(P, W, T, rng=11, ndraws=1_000_000)
    want = oracle_mixture_variance(W / T, p3, 0.5, 4)
    got = Y.var(axis=0, ddof=1)
    assert np.all(np.abs(got - want) <= 0.05 * want)


# --- reinforcement ------------------------------------------------------------

def reinforce(P, W, chi):
    """One reinforcement phase through the step loop's kernel, chi forced."""
    kern = StepKernel(P)
    W = np.array(W)[None, :]
    kern.reinforce(W, np.asarray(chi, np.int64)[None, :])
    return W[0], kern.dT


def test_reinforce_ftsr_all_white_adds_black_only(c4):
    P = problem(c4, "ftsr", p=0.5, s=2, t0=10)
    W0 = np.array([9, 9, 9, 9])
    # force an all-white draw: chi = 0 for Friedman
    W, dT = reinforce(P, W0, np.zeros(4, np.int64))
    assert np.array_equal(W, W0)
    assert np.array_equal(dT, np.full(4, 2))


def test_reinforce_ptsr_counts(c4):
    P = problem(c4, "ptsr", p=0.5, s=3, C=2, t0=10)
    Y = np.array([3, 0, 1, 2])
    W, dT = reinforce(P, P.cfg.W0, Y)
    assert np.array_equal(W - P.cfg.W0, 2 * Y)
    assert np.array_equal(dT, np.full(4, 2 * 3))


def test_reinforce_ftnr_neighbour_flow(k2):
    P = problem(k2, "ftnr", p=0.5, s=2, t0=10)
    W, _ = reinforce(P, P.cfg.W0, np.array([2, 0]))
    # urn 0's chi lands on urn 1 only, and vice versa
    assert (W - P.cfg.W0).tolist() == [0, 2]


def test_reinforce_directed_out_neighbours(fig2):
    P = problem(fig2, "ftnr", p=0.5, s=1, t0=10)
    chi = np.array([1, 0, 0, 0, 0])  # only urn 0 reinforces: edges 0->1, 0->2
    W, _ = reinforce(P, P.cfg.W0, chi)
    assert (W - P.cfg.W0).tolist() == [0, 1, 1, 0, 0]


# --- trajectories ---------------------------------------------------------

def test_run_zero_steps(c4):
    times, _, _, Z = run(problem(c4, "ftsr", p=0.5), steps=0)
    assert times.tolist() == [0]
    assert np.allclose(Z[0], 0.5)


def test_run_deterministic(c5):
    P = problem(c5, "ftsnr", p=0.5, seed=99)
    _, Wa, _, Za = run(P, steps=500, schedule="all")
    _, Wb, _, Zb = run(P, steps=500, schedule="all")
    assert np.array_equal(Wa, Wb)
    assert np.array_equal(Za, Zb)


def test_totals_deterministic_identity(c5):
    P = problem(c5, "ftsnr", p=0.3, s=3, C=2, seed=4)
    cfg, dp = P.cfg, P.params
    times, W, T, _ = run(P, steps=400, schedule="all")
    want = cfg.T0[None, :] + cfg.C * cfg.s * dp.omega[None, :] * times[:, None]
    assert np.array_equal(T, want)
    assert np.all(W >= 0) and np.all(W <= T)


def test_without_replacement_trajectory_valid(p3):
    P = problem(p3, "ptsr", p=0.5, s=4, t0=6, w0=3, sampling="without", seed=8)
    _, W, T, _ = run(P, steps=300, schedule="all")
    assert np.all(W >= 0) and np.all(W <= T)


def test_schedule_parsing():
    assert parse_schedule("all", 5).tolist() == [0, 1, 2, 3, 4, 5]
    geo = parse_schedule("geometric(2)", 20).tolist()
    assert geo == [0, 1, 2, 4, 8, 16, 20]
    assert parse_schedule([3, 1, 3], 10).tolist() == [0, 1, 3, 10]
    with pytest.raises(ConfigError):
        parse_schedule([11], 10)


def test_step_size_diagnostic(c4):
    # effective gain C*s*omega_i / T_{t+1}(i) behaves like 1/t: partial sums
    # diverge (logarithmically) while squared sums converge
    P = problem(c4, "ftnr", p=0.5, s=2, C=3, t0=7)
    cfg, dp = P.cfg, P.params
    t = np.arange(0, 200_000)
    gain = (cfg.C * cfg.s * dp.omega[None, :]) / (
        cfg.T0[None, :] + cfg.C * cfg.s * dp.omega[None, :] * (t[:, None] + 1))
    sums = gain.sum(axis=0)
    sq = (gain ** 2).sum(axis=0)
    assert np.all(sums > 10.0)  # ~ log(2e5) plus constant, clearly diverging
    half = (gain[:100_000] ** 2).sum(axis=0)
    assert np.all(sq - half < 1e-5)  # square-sum tail is negligible
    ratio = gain[1:] * t[1:, None]
    assert np.all(np.abs(ratio[-1] - 1.0) < 0.01)  # gain ~ 1/t


def test_ensemble_replicas_independent_at_t0(c4):
    P = problem(c4, "ftsr", p=0.5, seed=3)
    raw = simulate_ensemble(P, steps=10, schedule=[0, 10], replicas=16)
    assert np.ptp(raw.Z[0], axis=0).max() == 0.0  # all replicas share W0/T0
