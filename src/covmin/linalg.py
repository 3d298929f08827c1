"""Dense linear-algebra core: eigensolvers and regularized solves.

The generalized eigenproblems this package produces are nonsymmetric
(products of symmetric PSD matrices), so the main solver reduces
A v = lambda B v to a standard nonsymmetric problem (B + ridge I)^-1 A
and works with scipy's QR-based eigensolver. Retained eigenvalues are
checked for spurious imaginary parts rather than silently truncated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ComplexSpectrum, InvalidInput, SingularMatrix

#: imaginary parts above this (relative) threshold are an error, below it noise
IMAG_TOL = 1e-6


@dataclass
class EigPairs:
    """Eigenvalues sorted descending with their paired eigenvectors.

    values[i] corresponds to vectors[:, i]. Vectors of a generalized
    problem are the real parts of the computed eigenvectors, renormalized
    to unit Euclidean norm.
    """

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(S: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInput("expected a square matrix")
    scale = np.abs(S).max()
    if scale > 0 and np.abs(S - S.T).max() > rtol * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    return 0.5 * (S + S.T)


def sym_eig(S: np.ndarray) -> EigPairs:
    """Full symmetric eigendecomposition, eigenvalues descending.

    Parameters
    ----------
    S : (M, M) array
        Symmetric within 1e-8 relative tolerance.

    Returns
    -------
    EigPairs with orthonormal vectors satisfying S = V diag(w) V^T.
    """
    S = _require_symmetric(S)
    w, V = np.linalg.eigh(S)
    order = np.argsort(w)[::-1]
    return EigPairs(values=w[order], vectors=V[:, order])


def gen_eig(A: np.ndarray, B: np.ndarray, m: int, ridge: float | None = None) -> EigPairs:
    """Top-m eigenpairs of the pencil A v = lambda (B + ridge I) v.

    Reduction: eigendecompose T = (B + ridge I)^-1 A and keep the m pairs
    with the largest real parts. A and B need not be symmetric.

    Parameters
    ----------
    A, B : (N, N) arrays
    m : int
        Number of pairs to retain, 1 <= m <= N.
    ridge : float, optional
        Added to B's diagonal before inversion. Defaults to N times the
        machine epsilon, enough to make an exactly singular B invertible
        without visibly moving the well-separated part of the spectrum.

    Raises
    ------
    ComplexSpectrum
        If any retained eigenvalue has |Im| > 1e-6 * (1 + |Re|).
    SingularMatrix
        If B + ridge I cannot be inverted.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput("A and B must be square with equal shapes")
    N = A.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    if ridge is None:
        ridge = N * np.finfo(float).eps
    Breg = B + ridge * np.eye(N)
    try:
        T = np.linalg.solve(Breg, A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("B + ridge*I is singular") from exc
    if not np.all(np.isfinite(T)):
        raise SingularMatrix("solve against B + ridge*I produced non-finite values")
    w, V = sla.eig(T)
    order = np.argsort(-w.real, kind="stable")
    w = w[order][:m]
    V = V[:, order][:, :m]
    bad = np.abs(w.imag) > IMAG_TOL * (1.0 + np.abs(w.real))
    if np.any(bad):
        worst = np.abs(w.imag)[bad].max()
        raise ComplexSpectrum(
            f"retained eigenvalue has imaginary part {worst:.3e}; "
            "the operator pair is too ill-conditioned at this ridge"
        )
    vecs = V.real.copy()
    norms = np.linalg.norm(vecs, axis=0)
    norms[norms == 0] = 1.0
    vecs /= norms
    return EigPairs(values=w.real, vectors=vecs)


def ridge_inverse(W: np.ndarray, jitter: float) -> np.ndarray:
    """Inverse of W + jitter*I for a symmetric W."""
    W = _require_symmetric(W)
    M = W.shape[0]
    try:
        inv = np.linalg.solve(W + jitter * np.eye(M), np.eye(M))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("landmark block singular even after jitter") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMatrix("landmark block inverse overflowed")
    return inv
