"""Dense linear-algebra core: eigensolvers and regularized solves.

The dense fit reduces to a symmetric-definite pencil A w = lambda B w
(A symmetric, B symmetric positive definite), so its spectrum is real by
construction. Its two sides are a diagonal plus a low-rank term, and
lowrank_gen_eig finds the top m pairs from those factors alone: by
Lanczos (ARPACK) on a symmetric operator whose matvecs cost O(r (c + T))
for ranks c and T, or, for small orders, by its dense branch gen_eig,
which hands the assembled pencil to LAPACK's symmetric-definite solver.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import InvalidInput, SingularMatrix

_log = logging.getLogger(__name__)

#: lowrank_gen_eig assembles pencils of at most this order for LAPACK. On
#: criterion-4 subsamples (m=5, 2-core Xeon, BLAS on one thread; the
#: median over 3 splits of the median of 21 solves) LAPACK took 3.1 ms
#: against 4.5 ms for Lanczos at r=255, 4.2 against 5.2 ms at r=299, 5.5
#: against 6.0 ms at r=339 and 5.9 against 6.1 ms at r=349, and Lanczos
#: won from r=359 (5.9 against 6.3 ms; at r=399, 6.8 against 7.95 ms)
_DENSE_MAX_ORDER = 350


@dataclass
class EigPairs:
    """Eigenvalues sorted descending with their paired eigenvectors.

    values[i] corresponds to vectors[:, i]. Vectors of a generalized
    problem are renormalized to unit Euclidean norm.
    """

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(S: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """S symmetrized, 0.5 (S + S^T); S itself when it is exactly symmetric,
    which that average would return bit for bit."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInput("expected a square matrix")
    D = S - S.T
    asymmetry = np.abs(D, out=D).max(initial=0.0)
    del D
    if asymmetry == 0:
        return S
    if asymmetry > rtol * np.abs(S).max():
        raise InvalidInput("matrix is not symmetric within tolerance")
    return 0.5 * (S + S.T)


def sym_eig(S: np.ndarray, tol: float | None = None) -> EigPairs:
    """Symmetric eigendecomposition, eigenvalues descending.

    Parameters
    ----------
    S : (M, M) array
        Symmetric within 1e-8 relative tolerance.
    tol : float, optional
        Keep only the eigenvalues above tol * max(largest, 1) and their
        vectors, such as the numerical range of a PSD matrix. All are kept
        if omitted.

    Returns
    -------
    EigPairs with orthonormal vectors; without tol, S = V diag(w) V^T.
    """
    S = _require_symmetric(S)
    w, V = np.linalg.eigh(S)
    order = np.argsort(w)[::-1]
    if tol is not None:
        order = order[w[order] > tol * w.max(initial=1.0)]
    return EigPairs(values=w[order], vectors=V[:, order])


def gen_eig(A: np.ndarray, B: np.ndarray, m: int, ridge: float) -> EigPairs:
    """Top-m eigenpairs of the symmetric-definite pencil
    A v = lambda (B + ridge I) v: the dense branch of lowrank_gen_eig,
    which checks its factors and assembles A and B exactly symmetric.

    Returns EigPairs, values descending, vectors of unit Euclidean norm;
    raises SingularMatrix if B + ridge I is not positive definite.
    """
    N = A.shape[0]
    try:
        w, V = sla.eigh(A, B + ridge * np.eye(N), subset_by_index=[N - m, N - 1])
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("B + ridge*I is not positive definite") from exc
    V = V[:, ::-1]
    return EigPairs(values=w[::-1], vectors=V / np.linalg.norm(V, axis=0))


def lowrank_gen_eig(d: np.ndarray, Ya: np.ndarray, Yb: np.ndarray | None, m: int,
                    ridge: float) -> EigPairs:
    """Top-m eigenpairs of the symmetric-definite pencil
    (diag(d) + Ya^T Ya) w = mu (diag(d) + Yb^T Yb + ridge I) w,
    given by its factors; Yb = None drops the low-rank term of the right side.

    With D = d + ridge, a = Ya D^-1/2 and b = Yb D^-1/2, the right side is
    D^1/2 (I + b^T b) D^1/2. A thin SVD b = P diag(s) Q^T gives its exact
    inverse square root S = I - Q diag(1 - (1 + s^2)^-1/2) Q^T, so the mu
    are the eigenvalues of the symmetric S (diag(d / D) + a^T a) S, whose
    top m eigsh finds (which="LA", v0 = ones, tol = 0) with matvecs that
    never form an r x r matrix; w = D^-1/2 S u.

    The pencil is assembled and solved by gen_eig instead when its order r
    is at most _DENSE_MAX_ORDER, when m >= r - 1 (beyond ARPACK), and, with
    a logged warning, when ARPACK fails (ArpackError, including
    ArpackNoConvergence).

    Parameters
    ----------
    d : (r,) array
        Non-negative diagonal; d + ridge must be positive.
    Ya, Yb : (c, r) and (T, r) arrays, or Yb None
    m : int
        Number of pairs to retain, 1 <= m <= r.
    ridge : float
        Added to the right side's diagonal.

    Returns
    -------
    EigPairs, values descending, vectors of unit Euclidean norm.

    Raises
    ------
    InvalidInput
        If the shapes disagree or m is out of range.
    SingularMatrix
        If an entry is not finite or the right side is not positive definite.
    """
    d, Ya = np.asarray(d, dtype=float), np.asarray(Ya, dtype=float)
    Yb = None if Yb is None else np.asarray(Yb, dtype=float)
    r = d.size
    if d.ndim != 1 or any(Y is not None and (Y.ndim != 2 or Y.shape[1] != r)
                          for Y in (Ya, Yb)):
        raise InvalidInput(f"d must be a vector and the factors must have its {r} "
                           "entries as columns")
    if not 1 <= m <= r:
        raise InvalidInput(f"m must be in [1, {r}], got {m}")

    D = d + ridge
    if not (np.isfinite(D).all() and np.isfinite(Ya).all()
            and (Yb is None or np.isfinite(Yb).all())):
        raise SingularMatrix("pencil has non-finite entries")

    def dense():
        # Y^T Y is a SYRK in numpy, so A and B are exactly symmetric
        A = Ya.T @ Ya + np.diag(d)
        B = np.diag(d) if Yb is None else Yb.T @ Yb + np.diag(d)
        return gen_eig(A, B, m, ridge=ridge)

    if r <= _DENSE_MAX_ORDER or m >= r - 1:
        return dense()
    if D.min() <= 0:
        raise SingularMatrix("diag(d) + ridge*I is not positive definite")
    scale = 1.0 / np.sqrt(D)
    a = Ya * scale
    if Yb is None:
        Qt, QE = np.zeros((0, r)), np.zeros((r, 0))
    else:
        _, s, Qt = np.linalg.svd(Yb * scale, full_matrices=False)
        QE = Qt.T * (1.0 - 1.0 / np.sqrt(1.0 + s * s))
    dd = d / D

    def inv_sqrt(u):
        return u - QE @ (Qt @ u)

    def matvec(u):
        s = inv_sqrt(u.ravel())
        return inv_sqrt(dd * s + a.T @ (a @ s))

    op = LinearOperator((r, r), matvec=matvec, dtype=float)
    try:
        mu, V = eigsh(op, k=m, which="LA", v0=np.ones(r), tol=0)
    except ArpackError as exc:
        _log.warning("Lanczos failed on an order-%d pencil (%s); solving it densely",
                     r, exc)
        return dense()
    order = np.argsort(mu)[::-1]
    W = scale[:, None] * inv_sqrt(V[:, order])
    return EigPairs(values=mu[order], vectors=W / np.linalg.norm(W, axis=0))


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
