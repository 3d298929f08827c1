"""Dense linear-algebra core: eigensolvers and regularized solves.

The dense fit reduces to a symmetric-definite pencil A w = lambda B w
(A symmetric, B symmetric positive definite), so its spectrum is real by
construction. Its two sides are a diagonal plus a low-rank term, and
lowrank_gen_eig finds the top m pairs from those factors alone: by
Lanczos (ARPACK) on a symmetric operator whose matvecs cost O(r (c + T))
for ranks c and T, or, for small orders, by its dense branch gen_eig,
which hands the assembled pencil to LAPACK's symmetric-definite solver.
factored_sym_eig eigendecomposes the dense input Gram with its eigenbasis
left in factored form (ReflectorBasis).
"""
from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_lapack
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

#: _require_symmetric accepts an asymmetry up to this times max |S|
_SYMMETRY_RTOL = 1e-8


@dataclass
class EigPairs:
    """Eigenvalues sorted descending with their paired eigenvectors.

    values[i] corresponds to vectors[:, i]. Vectors of a generalized
    problem are renormalized to unit Euclidean norm.
    """

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(S: np.ndarray) -> np.ndarray:
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
    if asymmetry > _SYMMETRY_RTOL * np.abs(S).max():
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


# dstevd, the divide-and-conquer tridiagonal solver (dstedc) with its
# scaling, has a scipy.linalg.lapack wrapper only in scipy releases well
# after the 1.10 floor of pyproject.toml. scipy.linalg.cython_lapack
# (scipy >= 0.16) exports every LAPACK routine as a C function pointer in
# a capsule, and ctypes calls that with pointer arguments
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_capsule = cython_lapack.__pyx_capi__["dstevd"]
_dstevd = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)(
    _capsule_pointer(_capsule, _capsule_name(_capsule)))
del _capsule


def _tridiagonal_eig(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (N x N, Fortran
    order) of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e, by LAPACK dstevd, which may overwrite both. Raises
    numpy.linalg.LinAlgError if it fails."""
    d, e = (np.require(v, dtype=np.float64, requirements=["C", "W"]) for v in (d, e))
    N = len(d)
    if d.ndim != 1 or e.shape != (max(N - 1, 0),):
        raise InvalidInput("expected a diagonal and an off-diagonal one entry shorter")
    Z = np.empty((N, N), order="F")
    work = np.empty(1 + 4 * N + N * N)
    iwork = np.empty(3 + 5 * N, dtype=np.intc)
    n, lwork, liwork, info = (ctypes.c_int(v) for v in (N, len(work), len(iwork), 0))
    _dstevd(b"V", ctypes.byref(n), d.ctypes.data, e.ctypes.data, Z.ctypes.data,
            ctypes.byref(n), work.ctypes.data, ctypes.byref(lwork), iwork.ctypes.data,
            ctypes.byref(liwork), ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed (dstevd info={info.value})")
    return d, Z


@dataclass
class ReflectorBasis:
    """The orthonormal eigenbasis U = Q Z of a symmetric S = Q T Q^T,
    kept in factored form.

    Q is the product of the N - 1 Householder reflectors that dsytrd
    leaves below the subdiagonal of reflectors (lower storage, Fortran
    order), with their scalars tau. Z (N x rank, Fortran order) holds the
    kept eigenvectors of the tridiagonal T, eigenvalues descending. Q is
    not formed: project and expand apply it to N x k blocks in O(N^2 k).
    """

    reflectors: np.ndarray
    tau: np.ndarray
    Z: np.ndarray

    def _apply_q(self, C: np.ndarray, trans: bytes) -> np.ndarray:
        """Q C (trans b"N") or Q^T C (b"T") as a new array, for an N x k C."""
        out = np.array(C, dtype=float)
        N = len(out)
        if N > 1:
            # Q = diag(1, Q'), Q' the dormqr product of the reflectors in
            # reflectors[1:, :-1]. That block is not contiguous, but the
            # N x (N - 1) Fortran view of the same memory from entry
            # [1, 0] is, with leading dimension N, and dormqr reads only
            # the first N - 1 rows of its columns: the block itself
            a = self.reflectors.reshape(-1, order="F")[1:1 + N * (N - 1)].reshape(
                N, N - 1, order="F")
            lwork = int(sla.lapack.dormqr(b"L", trans, a, self.tau, out[1:], -1)[1][0])
            out[1:] = sla.lapack.dormqr(b"L", trans, a, self.tau, out[1:], lwork)[0]
        return out

    # The products with Z use scipy's BLAS, as dormqr does: numpy bundles
    # another OpenBLAS, and with several threads each switch between the
    # two pools waits for the other pool's spinning threads

    def project(self, F: np.ndarray) -> np.ndarray:
        """U^T F, rank x k, for an N x k F."""
        return sla.blas.dgemm(1.0, self.Z, self._apply_q(F, b"T"), trans_a=1)

    def expand(self, W: np.ndarray) -> np.ndarray:
        """U W, N x k, for a rank x k W."""
        return self._apply_q(sla.blas.dgemm(1.0, self.Z, W), b"N")


def factored_sym_eig(S: np.ndarray, tol: float) -> tuple[np.ndarray, ReflectorBasis]:
    """Symmetric eigendecomposition S = U diag(values) U^T, values
    descending, with U kept as a ReflectorBasis. Overwrites S.

    It runs the two steps of LAPACK's dsyevd, the tridiagonal reduction
    dsytrd (4/3 N^3) and the divide-and-conquer tridiagonal solver
    (dstevd), and skips dsyevd's N x N back-transformation U = Q Z. The
    reduction writes its reflectors into S's own buffer (a float64 S in C
    order), so a caller that reads S afterwards passes a copy. S, not
    empty, is checked as in sym_eig (an S symmetric only within tolerance
    is averaged into a new array, which is reduced instead), and tol keeps
    the values above tol * max(largest, 1) and their vectors, as there.
    Raises numpy.linalg.LinAlgError if the tridiagonal solver fails.
    """
    A = _require_symmetric(S)
    N = A.shape[0]
    # dsytrd overwrites A.T, the same matrix in Fortran order, in place
    lwork = int(sla.lapack.dsytrd_lwork(N, lower=1)[0])
    c, d, e, tau, _ = sla.lapack.dsytrd(A.T, lower=1, lwork=lwork, overwrite_a=1)
    w, Z = _tridiagonal_eig(d, e)
    rank = int(np.count_nonzero(w > tol * w.max(initial=1.0)))
    # the kept columns, descending; the solver's workspace is freed by now,
    # so the copy is the third N x N array at most
    Z = Z[:, N - rank:][:, ::-1].copy(order="F")
    return w[::-1][:rank].copy(), ReflectorBasis(reflectors=c, tau=tau, Z=Z)


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
