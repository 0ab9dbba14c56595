import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnnet.spectral import nullspace, rank_with_tol

from conftest import problem, random_connected_graph


def _spec(g):
    P = problem(g)
    return P.A, P.deg, P.spectral


def test_k2_eigenvalues(k2):
    # I + A on two vertices: char poly x^2 - 2x, roots {0, 2}
    _, _, sd = _spec(k2)
    assert np.allclose(sd.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert sd.theta == pytest.approx(2.0)


def test_c4_eigenvalues(c4):
    # cycle adjacency eigenvalues 2cos(2 pi k/4), scaled by 1/2 and shifted
    _, _, sd = _spec(c4)
    assert np.allclose(sd.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert sd.theta == pytest.approx(1.0)


def test_p3_eigenvalues(p3):
    _, _, sd = _spec(p3)
    assert np.allclose(sd.eigenvalues, [0.0, 1.0, 2.0], atol=1e-12)
    assert sd.theta == pytest.approx(1.0)


def test_rank_examples(c4, c5):
    for g, expected in ((c5, 5), (c4, 3)):
        A, d, _ = _spec(g)
        M = np.eye(g.n) + A / d[None, :]
        assert rank_with_tol(M) == expected
    assert rank_with_tol(np.zeros((4, 4))) == 0


def test_c5_smallest_eigenvalue(c5):
    _, _, sd = _spec(c5)
    assert sd.eigenvalues.min() == pytest.approx(1 + 2 * np.cos(4 * np.pi / 5) / 2, abs=1e-12)
    assert sd.eigenvalues.min() == pytest.approx(0.19098, abs=1e-5)
    assert sd.theta is None  # no zero eigenvalue on an odd cycle


def test_nullspace_c4_alternating(c4):
    A, d, _ = _spec(c4)
    M = np.eye(4) + A / d[None, :]
    basis = nullspace(M)
    assert basis.shape == (1, 4)
    v = basis[0] / basis[0][0]
    assert np.allclose(v, [1, -1, 1, -1], atol=1e-10)
    assert np.allclose(basis @ M, 0.0, atol=1e-10)


def test_nullspace_full_rank_empty():
    assert nullspace(np.eye(3)).shape == (0, 3)


def test_nullspace_ones_vector_c5(c5):
    A, _, _ = _spec(c5)
    M = 2 * np.eye(5) - A  # row sums equal the degree
    basis = nullspace(M)
    assert basis.shape == (1, 5)
    assert np.allclose(basis[0] / basis[0][0], np.ones(5), atol=1e-10)


def test_reconstruct_roundtrip(c4, c5, p3):
    for g in (c4, c5, p3):
        A, d, sd = _spec(g)
        M = np.eye(g.n) + A / d[None, :]
        assert np.max(np.abs(sd.reconstruct() - M)) < 1e-8


def test_directed_fig2_spectrum(fig2):
    A, d, sd = _spec(fig2)
    assert sd.diagonalizable
    assert abs(sd.eigenvalues[0]) < 1e-8  # zero mode sorted first, simple
    assert np.sum(np.abs(sd.eigenvalues) < 1e-8) == 1
    assert np.iscomplexobj(sd.eigenvalues)
    assert sd.theta is None
    assert np.max(np.abs(sd.reconstruct() - (np.eye(5) + A / d[None, :]))) < 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_spectrum_properties_random_graphs(seed):
    g = random_connected_graph(np.random.default_rng(seed))
    P = problem(g)
    A, d, sd, ga = P.A, P.deg, P.spectral, P.analysis
    lam = sd.eigenvalues
    assert np.all(lam > -1e-10) and np.all(lam < 2 + 1e-10)
    bipartite = ga.bipartition is not None
    assert (np.abs(lam) < 1e-8).any() == bipartite
    if bipartite:
        # zero eigenvalue is simple and its left eigenvector alternates with
        # constant magnitude between the two partitions
        assert np.sum(np.abs(lam) < 1e-8) == 1
        left = sd.Pinv[0]
        left = left / left[min(ga.bipartition[0])]
        V, W = ga.bipartition
        assert np.allclose([left[i] for i in sorted(V)], 1.0, atol=1e-8)
        assert np.allclose([left[i] for i in sorted(W)], -1.0, atol=1e-8)
    # left Perron vector of the column-stochastic transfer matrix
    assert np.allclose(np.ones(g.n) @ (A / d[None, :]), 1.0, atol=1e-12)
    assert np.max(np.abs(sd.reconstruct() - (np.eye(g.n) + A / d[None, :]))) < 1e-8


def test_rank_tolerance_knob():
    M = np.diag([1.0, 1e-6, 0.0])
    assert rank_with_tol(M) == 2
    assert rank_with_tol(M, tol=1e-3) == 1
