import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from urnnet.spectral import nullspace

from conftest import problem, random_connected_graph


def _spec(g):
    P = problem(g)
    return P.A, P.deg, P.spectral


def assert_same_spectrum(eigenvalues, M, tol=1e-8):
    """eigenvalues equal the spectrum of M as a multiset, each within tol."""
    want = list(np.linalg.eigvals(M))
    assert len(eigenvalues) == len(want)
    for lam in eigenvalues:
        i = int(np.argmin(np.abs(np.asarray(want) - lam)))
        assert abs(want.pop(i) - lam) < tol, (lam, eigenvalues)


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
        assert g.n - nullspace(M).shape[0] == expected
    assert nullspace(np.zeros((4, 4))).shape[0] == 4


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
        assert_same_spectrum(sd.eigenvalues, np.eye(g.n) + A / d[None, :])


def test_directed_fig2_spectrum(fig2):
    A, d, sd = _spec(fig2)
    assert sd.diagonalizable
    assert abs(sd.eigenvalues[0]) < 1e-8  # zero mode sorted first, simple
    assert np.sum(np.abs(sd.eigenvalues) < 1e-8) == 1
    assert np.iscomplexobj(sd.eigenvalues)
    assert sd.theta is None
    assert_same_spectrum(sd.eigenvalues, np.eye(5) + A / d[None, :])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_spectrum_properties_random_graphs(seed):
    g = random_connected_graph(np.random.default_rng(seed))
    P = problem(g)
    A, d, sd = P.A, P.deg, P.spectral
    lam = sd.eigenvalues
    M = np.eye(g.n) + A / d[None, :]
    assert np.all(lam > -1e-10) and np.all(lam < 2 + 1e-10)
    bipartite = g.bipartition is not None
    assert (np.abs(lam) < 1e-8).any() == bipartite
    if bipartite:
        # zero eigenvalue is simple and its left eigenvector alternates with
        # constant magnitude between the two partitions
        assert np.sum(np.abs(lam) < 1e-8) == 1
        left = nullspace(M)[0]
        left = left / left[min(g.bipartition[0])]
        V, W = g.bipartition
        assert np.allclose([left[i] for i in sorted(V)], 1.0, atol=1e-8)
        assert np.allclose([left[i] for i in sorted(W)], -1.0, atol=1e-8)
    # left Perron vector of the column-stochastic transfer matrix
    assert np.allclose(np.ones(g.n) @ (A / d[None, :]), 1.0, atol=1e-12)
    assert_same_spectrum(lam, M)


def test_eigenvectors_are_kept_only_where_they_diagonalise_the_drift(grid33, fig2):
    # kept for self or neighbour reinforcement on an undirected graph, as the
    # orthonormal eigenvectors of I + D^-1/2 A D^-1/2 in the printed order
    for code in ("ftsr", "ftnr", "ptsr"):
        P = problem(grid33, code)
        U, r = P.spectral.vectors, np.sqrt(P.deg)
        assert np.allclose(U.T @ U, np.eye(9), atol=1e-12)
        sym = np.eye(9) + P.A / np.outer(r, r)
        assert np.allclose(sym @ U, U * P.spectral.eigenvalues, atol=1e-12)
    # no symmetrisable T: self-and-neighbour off a regular graph, or directed
    assert problem(grid33, "ftsnr").spectral.vectors is None
    for code in ("ftsr", "ftnr", "ftsnr"):
        assert problem(fig2, code).spectral.vectors is None


def test_rank_default_tolerance():
    M = np.diag([1.0, 1e-6, 0.0])
    assert 3 - nullspace(M).shape[0] == 2
