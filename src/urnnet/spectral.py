"""Dense spectral analysis of I + A D^-1 and related model matrices.

Undirected graphs go through the symmetric similarity
D^-1/2 (D + A) D^-1/2: real eigenvalues, orthonormal eigenvectors. Directed
graphs use the general eigensolver, whose eigenvectors serve only the
diagonalizability check, and may produce complex spectra.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import EigenFailure

if TYPE_CHECKING:
    from .theory import Problem

__all__ = ["SpectralData", "eigendecompose", "nullspace", "ZERO_EIG_TOL"]

ZERO_EIG_TOL = 1e-8
COND_LIMIT = 1e10


@dataclass(frozen=True)
class SpectralData:
    """Spectrum of I + A D^-1 with any zero eigenvalue sorted first.

    theta is the smallest nonzero eigenvalue, defined only for (numerically)
    real spectra that contain a zero eigenvalue. vectors: the eigenvectors U of
    I + D^-1/2 A D^-1/2, a column per eigenvalue, if Problem.walk_polynomial; else None.
    """

    eigenvalues: np.ndarray
    diagonalizable: bool
    theta: Optional[float] = None
    vectors: Optional[np.ndarray] = None


def eigendecompose(problem: Problem) -> SpectralData:
    """Eigenvalues of M = I + A D^-1 on the problem's graph.

    Zero eigenvalues (|lambda| < 1e-8) sort first, the rest ascend by real
    part. A directed matrix whose eigenvector matrix has condition number
    above 1e10 is flagged diagonalizable=False.
    """
    A, Ddiag = problem.A, problem.deg
    n = A.shape[0]

    try:
        if not problem.g.directed:
            # D^-1/2 (I + A D^-1) D^1/2 = I + D^-1/2 A D^-1/2 is symmetric
            droot = np.sqrt(Ddiag)
            sym = np.eye(n) + A / np.outer(droot, droot)
            eig, P = np.linalg.eigh(sym)
            diagonalizable = True
        else:
            eig, P = np.linalg.eig(np.eye(n) + problem.ADi)
            cond = np.linalg.cond(P)
            diagonalizable = bool(np.isfinite(cond) and cond < COND_LIMIT)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc

    order = np.lexsort((np.imag(eig), np.real(eig), np.abs(eig) >= ZERO_EIG_TOL))
    eig = eig[order]
    if np.all(np.abs(np.imag(eig)) < 1e-10):
        eig = np.real(eig)

    theta = None
    if np.isrealobj(eig) and np.abs(eig[0]) < ZERO_EIG_TOL:
        nonzero = eig[np.abs(eig) >= ZERO_EIG_TOL]
        if nonzero.size:
            theta = float(nonzero.min())
    return SpectralData(eigenvalues=eig, diagonalizable=diagonalizable, theta=theta,
                        vectors=P[:, order] if problem.walk_polynomial else None)


def nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the left null space {x : x M = 0} of a real
    square M.

    Row-vector convention: returns an array of shape (n - rank, n) whose rows
    x satisfy x @ M ~ 0, counting singular values up to 1e-9 n max|M| as zero.
    """
    U, sv, _ = np.linalg.svd(M)
    return U[:, sv <= 1e-9 * M.shape[0] * np.max(np.abs(M))].T
