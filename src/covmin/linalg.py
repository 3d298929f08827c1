"""Dense linear-algebra core: eigensolvers and regularized solves.

The dense fit reduces to a symmetric-definite pencil A w = lambda B w
(A symmetric, B symmetric positive definite), so its spectrum is real by
construction. gen_eig hands it to LAPACK's symmetric-definite solver and
computes only the retained top-m pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, SingularMatrix

#: eigenvalues at or below this fraction of max(largest, 1) count as zero
_POSITIVE_TOL = 1e-12


@dataclass
class EigPairs:
    """Eigenvalues sorted descending with their paired eigenvectors.

    values[i] corresponds to vectors[:, i]. Vectors of a generalized
    problem are renormalized to unit Euclidean norm.
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


def positive_eig(S: np.ndarray) -> EigPairs:
    """sym_eig restricted to the eigenvalues above
    1e-12 * max(largest, 1): the numerical range of a PSD matrix."""
    pairs = sym_eig(S)
    keep = pairs.values > _POSITIVE_TOL * max(pairs.values[0], 1.0)
    return EigPairs(values=pairs.values[keep], vectors=pairs.vectors[:, keep])


def gen_eig(A: np.ndarray, B: np.ndarray, m: int, ridge: float | None = None) -> EigPairs:
    """Top-m eigenpairs of the symmetric-definite pencil
    A v = lambda (B + ridge I) v.

    Parameters
    ----------
    A, B : (N, N) arrays
        Symmetric within 1e-8 relative tolerance; B + ridge I must be
        positive definite.
    m : int
        Number of pairs to retain, 1 <= m <= N.
    ridge : float, optional
        Added to B's diagonal. Defaults to N times the machine epsilon.

    Returns
    -------
    EigPairs, values descending, vectors of unit Euclidean norm.

    Raises
    ------
    InvalidInput
        If the shapes disagree, m is out of range or A or B is not
        symmetric.
    SingularMatrix
        If an entry is not finite or B + ridge I is not positive definite.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInput("A and B must be square with equal shapes")
    N = A.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise SingularMatrix("pencil has non-finite entries")
    A = _require_symmetric(A)
    B = _require_symmetric(B)
    if ridge is None:
        ridge = N * np.finfo(float).eps
    try:
        w, V = sla.eigh(A, B + ridge * np.eye(N), subset_by_index=[N - m, N - 1])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("B + ridge*I is not positive definite") from exc
    V = V[:, ::-1]
    return EigPairs(values=w[::-1], vectors=V / np.linalg.norm(V, axis=0))


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
