import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from urnnet.dynamics import ModelConfig
from urnnet.errors import AssumptionViolatedError, InconsistentDriftError, NotApplicableError
from urnnet.experiments import default_plan
from urnnet.graphs import parse_edge_list
from urnnet.theory import (
    DriftModel,
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

from conftest import (
    C3_DIRECTED_EDGES,
    C4_EDGES,
    C5_EDGES,
    DEFECTIVE_EDGES,
    FIG2_EDGES,
    K2_EDGES,
    MULTI_SOURCE_ARCS,
    MULTI_SOURCE_RELABELLED,
    P3_EDGES,
    TWO_SOURCE_2CYCLES_ARCS,
    digraph,
    expected_chi,
    grid_edges,
    problem,
    random_connected_graph,
    random_directed_graph,
    random_multi_component_arcs,
)

ALL_CODES = ("ptsr", "ptnr", "ptsnr", "ftsr", "ftnr", "ftsnr")

_GRAPHS = st.tuples(st.integers(0, 10_000), st.booleans()).map(
    lambda a: (random_directed_graph if a[1] else random_connected_graph)(
        np.random.default_rng(a[0])))


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
    ends = {tuple(np.round(ls.particular + c * ls.basis[0], 9)) for c in (lo, hi)}
    assert ends == {(0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0)}


def test_limit_family_fig2(fig2):
    ls = limit_set(drift_model(problem(fig2, "ftsr", 0.0)))
    assert ls.kind == "one_parameter"

    def family(a):
        return np.array([3 * a - 1, 2 - 3 * a, 1 - a, a, 1 - a])

    for a in (1 / 3, 0.45, 2 / 3):
        zt = family(a)
        c = (zt - ls.particular) @ ls.basis.T
        assert np.linalg.norm(zt - (ls.particular + c @ ls.basis)) < 1e-10
        assert ls.box[0, 0] - 1e-9 <= c[0] <= ls.box[0, 1] + 1e-9
    # the box endpoints are exactly the extreme family members a = 1/3, 2/3
    ends = {tuple(np.round(ls.particular + b * ls.basis[0], 9)) for b in ls.box[0]}
    want = {tuple(np.round(family(a), 9)) for a in (1 / 3, 2 / 3)}
    assert ends == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_GRAPHS, st.sampled_from(ALL_CODES), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_limit_set_is_centred_at_half(g, code, p):
    dm = drift_model(problem(g, code, p))
    half = np.full(g.n, 0.5)
    assert np.max(np.abs(dm(half))) < 1e-12
    ls = limit_set(dm)
    assert np.array_equal(ls.particular, half)
    for u, ends in zip(ls.basis, [] if ls.box is None else ls.box):
        for c in ends:  # inside the cube, and on its boundary
            z = half + c * u
            assert np.all((z >= -1e-12) & (z <= 1 + 1e-12)), (code, p, c)
            assert np.min(np.minimum(np.abs(z), np.abs(1 - z))) <= 1e-12, (code, p, c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_every_drift_is_lam_transfer_minus_identity(seed):
    # h(z) = b0 1 + z (lam T - I) with T column stochastic, bit for bit
    rng = np.random.default_rng(seed)
    graphs = (random_connected_graph(rng), random_directed_graph(rng),
              digraph(random_multi_component_arcs(rng)))
    for g in graphs:
        for code in ALL_CODES:
            for p in (0.0, 0.3, 0.5, 1.0):
                P = problem(g, code, p)
                b0, lam = P.params.b0, P.params.lam
                case = (g.edges, g.directed, code, p)
                assert (b0, lam) == ((0, 1) if code.startswith("p") else (1, -1)), case
                assert np.max(np.abs(np.ones(g.n) @ P.transfer - 1.0)) <= 1e-12, case
                dm = drift_model(P)
                I = np.eye(g.n)
                for K in (lam * P.transfer - I,
                          P.transfer - I if code.startswith("p") else -(P.transfer + I)):
                    assert np.array_equal(dm.K.view(np.int64), K.view(np.int64)), case
                assert np.array_equal(dm.b.view(np.int64),
                                      np.full(g.n, float(b0)).view(np.int64)), case


def test_limit_set_rejects_a_drift_without_the_zero_half():
    with pytest.raises(InconsistentDriftError):
        limit_set(DriftModel(b=np.ones(3), K=np.eye(3)))


def test_limit_set_box_is_none_when_supports_overlap():
    # the left null space {z : z1 + z2 = 2 z3} has no basis of disjoint supports
    ls = limit_set(DriftModel(b=np.zeros(3), K=np.outer([1.0, 1.0, -2.0], [1.0, 0.0, 0.0])))
    assert ls.kind == "two_parameter" and ls.box is None


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
    P = problem(c5, "ftsr", 0.5)
    r = classify(P)
    assert r.applicable_theorem == "friedman_unique"
    assert np.allclose(P.predicted_limit.particular, 0.5)
    r = classify(problem(c5, "ftsr", 0.0))
    assert r.applicable_theorem == "friedman_unique"  # non-bipartite
    r = classify(problem(c4, "ftsr", 0.0))
    assert r.applicable_theorem == "friedman_bipartite_partial_sync"
    r = classify(problem(c4, "ftnr", 1.0))
    assert r.applicable_theorem == "friedman_bipartite_partial_sync"
    P = problem(c4, "ptnr", 0.0)
    r = classify(P)
    assert r.applicable_theorem == "polya_bipartite_two_param"
    assert P.predicted_limit.dimension == 2
    r = classify(problem(c5, "ptsr", 0.5))
    assert r.applicable_theorem == "polya_regular_sync"
    P = problem(c5, "ptsr", 1.0)
    r = classify(P)
    assert r.applicable_theorem == "unknown"  # independent urns: no claim
    assert P.predicted_limit is None


def test_classification_builds_no_drift(c5):
    # verify reads the label before its ensembles, where the drift's BLAS
    # product would add to the peak memory
    P = problem(c5, "ftsnr", 0.5)
    P.classification
    assert "drift" not in vars(P)


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
                P = problem(g, code, p)
                if classify(P).applicable_theorem == "friedman_unique":
                    ls = limit_set(P.drift)  # the numerical solve, not the theorem's point
                    assert ls.kind == "unique_point"
                    assert np.allclose(ls.particular, 0.5)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1).map(
           lambda seed: random_multi_component_arcs(np.random.default_rng(seed))),
       st.sampled_from(["ftsr", "ftnr", "ftsnr"]), st.sampled_from([0.0, 0.5, 1.0]))
@example(MULTI_SOURCE_ARCS, "ftsr", 0.0)
@example(MULTI_SOURCE_RELABELLED, "ftsr", 0.0)
def test_directed_unique_theorem_has_the_point_limit_half(arcs, code, p):
    P = problem(digraph(arcs), code, p)
    if classify(P).applicable_theorem.endswith("_unique"):
        ls = limit_set(P.drift)  # the numerical solve, not the theorem's point
        assert ls.kind == "unique_point"
        assert np.allclose(ls.particular, 0.5)


def test_multi_source_classification_is_label_free():
    for arcs in (MULTI_SOURCE_ARCS, MULTI_SOURCE_RELABELLED):
        P = problem(digraph(arcs), "ftsr", 0.0)
        assert classify(P).applicable_theorem == "directed_general"
        assert P.predicted_limit.kind == "one_parameter"


# the dimension of the limit set each of the paper's labels predicts
_LABEL_KIND = {"friedman_unique": "unique_point", "directed_friedman_unique": "unique_point",
               "friedman_bipartite_partial_sync": "one_parameter",
               "polya_regular_sync": "one_parameter",
               "polya_bipartite_two_param": "two_parameter"}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_each_paper_label_predicts_its_limit_dimension(seed):
    rng = np.random.default_rng(seed)
    graphs = (random_connected_graph(rng), random_directed_graph(rng),
              digraph(random_multi_component_arcs(rng)))
    for g in graphs:
        for code in ALL_CODES:
            for p in (0.0, 0.3, 0.5, 1.0):
                for t0 in (4, [4 + i % 3 for i in range(g.n)]):
                    P = problem(g, code, p, t0=t0, w0=2)
                    r = P.classification
                    case = (g.edges, g.directed, code, p, t0, r.applicable_theorem)
                    if r.applicable_theorem in _LABEL_KIND:  # against the numerical solve
                        assert limit_set(P.drift).kind == _LABEL_KIND[r.applicable_theorem], case
                    else:
                        assert r.applicable_theorem in ("directed_general", "unknown"), case
                    if P.walk_drift:  # K is the bare graph walk, bit for bit
                        assert np.array_equal(-P.drift.K, np.eye(g.n) + P.ADi), case


# what each label predicts, as the paper states it: the default plan's
# criteria and the limit, None, the point 1/2 1 or the solution set of h = 0
_CONVERGE = [{"kind": "convergence"}, {"kind": "manifold"}]
_PARTITION = [{"kind": "manifold"}, {"kind": "sync", "scope": "partition"}]
_LABEL_PREDICTS = {
    "friedman_unique": (_CONVERGE, "point"),
    "directed_friedman_unique": (_CONVERGE, "point"),
    "friedman_bipartite_partial_sync": (_PARTITION, "set"),
    "polya_bipartite_two_param": (_PARTITION, "set"),
    "polya_regular_sync": ([{"kind": "manifold"}, {"kind": "sync", "scope": "global"}], "set"),
    "directed_general": ([{"kind": "manifold"}], "set"),
    "unknown": ([{"kind": "manifold"}], None),
}


def test_each_label_sets_its_default_plan_limit_and_fluctuation_gate():
    # K2, C4, C5, P3, a triangle with a pendant, a star, K4, the 3x3 grid
    undirected = (K2_EDGES, C4_EDGES, C5_EDGES, P3_EDGES, "0 1\n1 2\n2 0\n2 3",
                  "0 1\n0 2\n0 3", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3", grid_edges(3, 3))
    graphs = ([parse_edge_list(e, directed=False) for e in undirected]
              + [parse_edge_list(e, directed=True)
                 for e in (FIG2_EDGES, C3_DIRECTED_EDGES, DEFECTIVE_EDGES)]
              + [digraph(TWO_SOURCE_2CYCLES_ARCS), digraph(MULTI_SOURCE_ARCS)])
    seen = set()
    for g, code, p in itertools.product(graphs, ALL_CODES, (0.0, 0.3, 0.5, 1.0)):
        P = problem(g, code, p)
        label = P.classification.applicable_theorem
        criteria, limit = _LABEL_PREDICTS[label]
        case = (g.edges, g.directed, code, p, label)
        seen.add(label)
        assert default_plan(P) == {"steps": 100_000, "replicas": 64, "criteria": criteria}, case
        ls = P.predicted_limit
        if limit is None:
            assert ls is None, case
        elif limit == "point":
            assert ls.kind == "unique_point" and ls.basis.shape == (0, g.n), case
            assert np.array_equal(ls.particular, np.full(g.n, 0.5)), case
        else:
            want = limit_set(P.drift)
            assert ls.kind == want.kind and np.array_equal(ls.basis, want.basis), case
        try:
            fluctuation(P)
        except NotApplicableError as exc:
            assert ("not the unique point" in str(exc)) == (limit != "point"), case
        else:
            assert limit == "point", case
    assert seen == set(_LABEL_PREDICTS)


# --- fluctuation covariances ----------------------------------------------

K33_EDGES = "\n".join(f"{i} {j}" for i in range(3) for j in range(3, 6))


def _complete(n):
    return "\n".join(f"{i} {j}" for i in range(n) for j in range(i + 1, n))


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
        for code in ("ftsr", "ftnr", "ftsnr"):
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


def test_sigma_is_the_papers_formula_on_regular_graphs():
    # the paper's two covariances, written out only here, are the self and
    # neighbour cases of fluctuation's one closed form
    cycle = "\n".join(f"{i} {(i + 1) % 6}" for i in range(6))
    checked = 0
    for edges in (K2_EDGES, C4_EDGES, C5_EDGES, cycle, _complete(4), _complete(5), K33_EDGES):
        g = parse_edge_list(edges, directed=False)
        I = np.eye(g.n)
        for code, p, s in itertools.product(
                ("ftsr", "ftnr"), (0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 1.0), (1, 2, 3)):
            P = problem(g, code, p, s=s)
            try:
                rep = fluctuation(P)
            except NotApplicableError:
                continue
            if rep.regime != "sqrt_t":
                continue
            W = P.A / P.A.sum(axis=0)  # A D^-1
            if code == "ftsr":
                want = np.linalg.inv((2 * p + 1) * I + 2 * (1 - p) * W) / (4 * s)
            else:
                want = W @ W @ np.linalg.inv(I + 2 * p * W + 2 * (1 - p) * W @ W) / (4 * s)
            assert rep.closed_form
            err = np.linalg.norm(rep.Sigma - want) / np.linalg.norm(want)
            assert err <= 1e-12, (edges, code, p, s, err)
            checked += 1
    assert checked == 294


@settings(max_examples=80, deadline=None)
@given(_GRAPHS, st.sampled_from(["ftsr", "ftnr", "ftsnr"]),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]))
@example(parse_edge_list(DEFECTIVE_EDGES, directed=True), "ftsr", 0.5)
@example(parse_edge_list(DEFECTIVE_EDGES, directed=True), "ftnr", 0.5)
@example(parse_edge_list(DEFECTIVE_EDGES, directed=True), "ftsnr", 0.5)
def test_lyapunov_residual_random_graphs(g, code, p):
    P = problem(g, code, p)
    try:
        rep = fluctuation(P)
    except NotApplicableError:
        return
    if rep.regime != "sqrt_t":
        return
    Sigma = sigma_lyapunov(P)
    S = P.drift.K + 0.5 * np.eye(g.n)
    G = noise_covariance(P)
    assert np.linalg.norm(S.T @ Sigma + Sigma @ S + G) <= 1e-12 * np.linalg.norm(G)
    assert np.max(np.abs(Sigma - Sigma.T)) <= 1e-12
    if rep.closed_form:  # the eigenbasis route solves the same equation
        Sigma = rep.Sigma
        assert np.linalg.norm(S.T @ Sigma + Sigma @ S + G) <= 1e-11 * np.linalg.norm(G)
        assert np.array_equal(Sigma, Sigma.T)


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


def test_critical_sigma_tilde_ftnr_carries_nu_squared(c5):
    # C5 ftnr, s = 2, at the p where rho = 1 + p nu + (1-p) nu^2 = 1/2 for
    # nu = cos(4 pi/5): the sqrt(t/log t) variance on that eigenplane of
    # A D^-1 is nu^2/(4s), the noise factor included
    nu = np.cos(4 * np.pi / 5)
    P = problem(c5, "ftnr", (1 + 2 * nu * nu) / (2 * nu * nu - 2 * nu), s=2)
    rep = fluctuation(P)
    assert rep.regime == "sqrt_t_over_log_t" and rep.closed_form
    want = nu * nu / 8
    assert np.allclose(np.linalg.eigvalsh(rep.SigmaTilde), [0, 0, 0, want, want], atol=1e-12)
    # the exact log-slope of t Var along a critical direction u
    u = np.cos(4 * np.pi * np.arange(5) / 5)
    u /= np.linalg.norm(u)
    t1, t2 = 2_000, 20_000
    v1 = u @ moment_recursion_cov(P, t1)[1] @ u
    v2 = u @ moment_recursion_cov(P, t2)[1] @ u
    slope = (t2 * v2 - t1 * v1) / np.log(t2 / t1)
    assert abs(slope / want - 1) < 0.01, slope


@pytest.mark.parametrize("edges, code, p, entry, sign", [
    # K3,3 ftsnr at p = 1: T = (I + A)/4 has eigenvalue -1/2 on the
    # alternating vector, so rho = 1/2
    (K33_EDGES, "ftsnr", 1.0, None, None),
    # ftsr p = 1/4 on a bipartite non-regular graph: rho = 2p = 1/2, and
    # SigmaTilde is entry * sign sign^T on the bipartition's sign vector
    (P3_EDGES, "ftsr", 0.25, 3 / 32, [1, -1, 1]),
    ("0 1\n0 2\n0 3", "ftsr", 0.25, 1 / 12, [1, -1, -1, -1]),
], ids=["K33-ftsnr", "P3-ftsr", "star-ftsr"])
def test_critical_sigma_tilde_matches_exact_moments(edges, code, p, entry, sign):
    # the exact log-slope of t Cov gives SigmaTilde
    P = problem(parse_edge_list(edges, directed=False), code, p, s=1)
    rep = fluctuation(P)
    assert rep.regime == "sqrt_t_over_log_t" and rep.closed_form
    if entry is not None:
        assert np.allclose(rep.SigmaTilde, entry * np.outer(sign, sign), rtol=0, atol=1e-12)
    t1, t2 = 2_000, 8_000
    slope = (t2 * moment_recursion_cov(P, t2)[1]
             - t1 * moment_recursion_cov(P, t1)[1]) / np.log(t2 / t1)
    err = np.linalg.norm(slope - rep.SigmaTilde) / np.linalg.norm(rep.SigmaTilde)
    assert err < 0.01, err


def test_near_critical_sigma_tilde_keeps_its_directions(c4, p3):
    # the regime is critical for |rho - 1/2| <= 1e-9, so SigmaTilde must keep
    # the critical pairs as far out: ftsr p = 1/4 + dp has rho = 1/2 + 2 dp
    for g, v, entry in ((c4, [1, -1, 1, -1], 1 / 16), (p3, [1, -1, 1], 3 / 32)):
        for dp in (-4e-10, 4e-10):
            rep = fluctuation(problem(g, "ftsr", 0.25 + dp, s=1))
            assert rep.regime == "sqrt_t_over_log_t"
            assert np.allclose(rep.SigmaTilde, entry * np.outer(v, v), rtol=0, atol=1e-8)


def test_eigenbasis_prints_exact_zeros_and_diagonals(p3):
    # K4 ftnr p = 1 s = 3: Sigma = I/36, its off-diagonal round-off set to 0;
    # P3 ftsr p = 1: independent urns, Sigma = I/(12 s)
    rep = fluctuation(problem(parse_edge_list(_complete(4), directed=False), "ftnr", 1.0, s=3))
    assert rep.closed_form
    assert np.all(rep.Sigma[~np.eye(4, dtype=bool)] == 0.0)
    assert np.allclose(np.diag(rep.Sigma), 1 / 36, rtol=1e-12, atol=0)
    for s in (1, 2, 3):
        rep = fluctuation(problem(p3, "ftsr", 1.0, s=s))
        assert rep.closed_form
        assert np.array_equal(rep.Sigma == 0.0, np.eye(3) == 0.0)
        assert np.allclose(rep.Sigma, np.eye(3) / (12 * s), rtol=1e-15, atol=0)


def test_fluctuation_subcritical_reports_not_applicable(c4):
    P = problem(c4, "ftnr", 0.8, s=2)
    rep = fluctuation(P)
    assert rep.rho == pytest.approx(0.4)
    assert rep.regime == "not_applicable"
    assert rep.Sigma is None
    with pytest.raises(NotApplicableError, match="no sqrt\\(t\\) regime"):
        sigma_lyapunov(P)


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
    d = decay_exponents(problem(c4, "ftsr", 0.0))
    assert d.mean_exponent == pytest.approx(1.0)
    assert d.variance_exponent == pytest.approx(1.0) and d.log_correction
    d = decay_exponents(problem(k2, "ftsr", 0.0))
    assert d.mean_exponent == pytest.approx(2.0)
    assert d.variance_exponent == pytest.approx(1.0) and not d.log_correction
    assert decay_exponents(problem(p3, "ftsr", 0.0)).mean_exponent == pytest.approx(1.0)


def test_decay_requires_bipartite(c5):
    with pytest.raises(AssumptionViolatedError):
        decay_exponents(problem(c5, "ftsr", 0.0))


def test_decay_requires_diagonalizable():
    g = parse_edge_list(DEFECTIVE_EDGES, directed=True)
    with pytest.raises(AssumptionViolatedError, match="not diagonalizable"):
        decay_exponents(problem(g, "ftsr", 0.0))


def test_undefined_theta_message_names_its_condition(fig2):
    # FIG2 has a simple zero eigenvalue and a complex spectrum
    sd = problem(fig2, "ftsr", 0.0).spectral
    assert np.sum(np.abs(sd.eigenvalues) < 1e-8) == 1 and np.iscomplexobj(sd.eigenvalues)
    with pytest.raises(AssumptionViolatedError, match="theta is undefined") as info:
        decay_exponents(problem(fig2, "ftsr", 0.0))
    assert "no zero eigenvalue" not in str(info.value)


@pytest.mark.parametrize("code,p", [("ftsnr", 0.0), ("ftsr", 0.5), ("ftnr", 0.0),
                                    ("ptsr", 0.5), ("ptnr", 1.0)])
def test_decay_is_not_applicable_off_the_graph_walk(c4, code, p):
    with pytest.raises(NotApplicableError, match="not the graph walk"):
        problem(c4, code, p).decay


def test_decay_is_cached_on_the_problem(c4):
    P = problem(c4, "ftnr", 1.0)
    assert P.decay is P.decay
    assert P.decay == decay_exponents(problem(c4, "ftsr", 0.0))


def _pair_minimum(lam):
    """The least sum over eigenvalue pairs i <= j but the zero-zero pair,
    by the O(n^2) table: the oracle of decay_exponents' lambda_0 + lambda_1."""
    return float(np.add.outer(lam, lam)[np.triu_indices(len(lam))][1:].min())


def test_variance_exponent_is_the_least_pair_sum_bit_for_bit():
    rng = np.random.default_rng(29)
    checked = repeated_zero = 0
    for _ in range(400):
        for g in (random_connected_graph(rng), random_directed_graph(rng),
                  digraph(random_multi_component_arcs(rng))):
            P = problem(g, "ftsr", 0.0)
            try:
                d = P.decay
            except AssumptionViolatedError:
                continue
            minsum = _pair_minimum(P.spectral.eigenvalues)
            assert d.variance_exponent == min(minsum, 1.0), g.edges
            assert d.log_correction == (abs(minsum - 1.0) < 1e-9), g.edges
            checked += 1
            repeated_zero += abs(P.spectral.eigenvalues[1]) < 1e-8
    assert checked >= 100 and repeated_zero >= 5, (checked, repeated_zero)


def test_repeated_zero_eigenvalue_gives_variance_exponent_zero():
    P = problem(digraph(TWO_SOURCE_2CYCLES_ARCS), "ftsr", 0.0)
    d = P.decay
    assert abs(P.spectral.eigenvalues[1]) < 1e-8
    assert d.variance_exponent == _pair_minimum(P.spectral.eigenvalues)
    assert abs(d.variance_exponent) < 1e-8 and d.mean_exponent == pytest.approx(1.0)
