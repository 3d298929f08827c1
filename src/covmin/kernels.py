"""Kernel evaluation, Gram assembly, and centering.

All projection models in this package operate on centered Gram matrices,
which realizes the zero-mean feature-map convention: K <- HKH with
H = I - (1/N) 11^T. Test columns are centered against training statistics
only, so transforming new data never peeks at test-set means. Serving
never forms those centered columns: centering is linear, so
coef^T H (K(X, Z) - mu 1^T) = beta^T K(X, Z) - (beta^T mu) 1^T with
beta = H coef, and rbf_cross_product evaluates beta^T K(X, Z) block by
block. The training row means mu still come from the training Gram alone.
center_cross_from_means forms the centered columns explicitly; no package
code calls it: it is the tests' reference for serving and a layer the
benchmark traces.

There is one RBF evaluator, _rbf_block, behind gram, cross_gram and every
rbf_cross_product block. Rows are lifted to [x, |x|^2, 1] (_lift_rows) and
columns to [-2z, 1, |z|^2] (_lift_columns), so one matrix product gives
||x - z||^2, and the block takes two in-place passes after it: scale by
-gamma, exp. gamma stays out of the product, so identical 1-D values give
a distance of exactly 0 and a kernel entry of exactly 1. gram and
cross_gram clamp their entries at 1 in a third pass, which gives exactly
the entries of a distance clamped at 0, exp(-gamma max(d, 0)). Serving
skips that pass while rounding cannot lift an entry measurably above 1
(_UNCLAMPED_LIMIT). gram and center_gram return exactly symmetric Grams.
A single query skips _rbf_block: _rbf_query_product takes the same steps
on vectors, with the same bits in fewer numpy calls.
Every lift checks that squared norms lie below _MAX_SQ_NORM, a quarter of
the largest float, and raises InvalidInput otherwise (NaN and inf too), so
no distance product overflows.
_delta is the one indicator behind every delta kernel.
"""
from __future__ import annotations

import contextlib
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

RBF = "rbf"
DELTA = "delta"

#: kernel entries per reused block of rbf_cross_product (2**16 float64,
#: 512 KB): a block, its GEMM operands and the weight strip stay in a 1 MB
#: per-core L2. For 1000 queries against 700, 1600 and 32000 rows (BLAS on
#: 1 thread, 2 MB L2), 2**17 took up to 2.3% longer, 2**15 about 8% and
#: 2**18 (2 MB) 23-31%
_BLOCK = 2 ** 16

#: kernel entries per strip that gram and cross_gram fill in their output
#: (2**18 float64, 2 MB). BLAS tiles a product by its row count, so the
#: last bits of a kernel entry depend on the strip it is computed in:
#: another size moves the bits of Grams and of every fit
_STRIP = 2 ** 18

#: bound on gamma (d + 2) max |z|^2 below which serving skips the clamp at
#: 1. Where the lifted product rounds ||x - z||^2 below 0, its error is
#: below (d + 1) eps (|x| + |z|)^2 (d + 2 products, lifted norms off by
#: d eps / 2 relative), so |x| is within sqrt((d + 1) eps) of |z|, relative,
#: and the error is below 4 (d + 2) eps |z|^2: no entry exceeds exp(2**-20).
#: A Python float, so that over a tiny float(gamma) it is inf, not a warning
_UNCLAMPED_LIMIT = 2.0 ** -20 / (4 * sys.float_info.epsilon)

#: bound on squared row norms: below it |x|^2 + 2|x||z| + |z|^2 is finite,
#: so no partial sum of a distance product overflows
_MAX_SQ_NORM = np.finfo(float).max / 4


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its width parameter.

    kind is "rbf" (k(a,b) = exp(-gamma * ||a-b||^2), gamma = 1/(2 sigma^2),
    finite and positive)
    or "delta" (k(a,b) = 1 if a == b else 0). gamma is ignored for delta.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in (RBF, DELTA):
            raise InvalidInput(f"unknown kernel kind: {self.kind!r}")
        if self.kind == RBF:
            try:  # float() of an int past the largest float overflows
                finite = isinstance(self.gamma, numbers.Real) and 0 < float(self.gamma) < np.inf
            except OverflowError:
                finite = False
            if not finite:
                raise InvalidInput("rbf kernel requires a finite gamma > 0")


def median_gamma(values) -> float:
    """Bandwidth heuristic for a kernel on real-valued outputs.

    Returns 1 / (2 * med^2) where med is the median of the values. Falls
    back to the median absolute deviation, then to 1.0, when the median
    sits at zero (centered targets would otherwise blow the width up).
    """
    v = np.asarray(values, dtype=float).ravel()
    med = abs(float(np.median(v)))
    if med < 1e-12:
        med = float(np.median(np.abs(v - np.median(v))))
    if med < 1e-12:
        return 1.0
    return 1.0 / (2.0 * med * med)


def _checked_norm(top: float) -> float:
    """top, a largest squared norm; InvalidInput unless it lies below
    _MAX_SQ_NORM, which rejects NaN and infinite entries too."""
    if not top < _MAX_SQ_NORM:  # NaN fails too
        raise InvalidInput(f"points must be finite with squared norms below {_MAX_SQ_NORM:.4g}")
    return top


def _sq_norms(X: np.ndarray) -> tuple[np.ndarray, float]:
    """|x|^2 for each row of X, and the largest (0 for no rows), checked."""
    s = np.einsum("ij,ij->i", X, X)
    return s, _checked_norm(s.max(initial=0.0))


def _lift_rows(X: np.ndarray) -> np.ndarray:
    """[X, |x|^2, 1], N x (d + 2): the rows of a distance product."""
    n, d = X.shape
    L = np.empty((n, d + 2))
    L[:, :d] = X
    L[:, d] = _sq_norms(X)[0]
    L[:, d + 1] = 1.0
    return L


def _lift_columns(Z: np.ndarray) -> tuple[np.ndarray, float]:
    """[-2Z, 1, |z|^2], N_T x (d + 2), and max |z|^2: _lift_rows(X) @
    _lift_columns(Z)[0].T is the matrix of squared distances ||x - z||^2."""
    n, d = Z.shape
    L = np.empty((n, d + 2))
    L[:, d + 1], top = _sq_norms(Z)  # first: it rejects a Z whose -2Z overflows
    np.multiply(Z, -2.0, out=L[:, :d])
    L[:, d] = 1.0
    return L, top


def _lift_query(z: np.ndarray) -> tuple[np.ndarray, float]:
    """_lift_columns of the one row z as a vector, and |z|^2, bit for bit:
    einsum sums one row's products in the same order (z @ z does not)."""
    d = len(z)
    sq = _checked_norm(np.einsum("i,i->", z, z))
    zl = np.empty(d + 2)
    np.multiply(z, -2.0, out=zl[:d])
    zl[d] = 1.0
    zl[d + 1] = sq
    return zl, sq


def _rbf_block(gamma: float, Xl: np.ndarray, Zl: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-gamma d) in out, where one GEMM of the lifted rows Xl of X and
    lifted columns Zl of Z gives d, ||x - z||^2 up to rounding, which is
    then scaled by -gamma and exponentiated in place.

    Where d rounds below 0 (coincident or nearly coincident points), the
    entry exceeds 1 by about gamma |d|: the rounding error of ||x - z||^2,
    which a clamp at 0 would only make one-sided. Under the caller's
    np.errstate, -gamma d may overflow to -inf for gamma > 1 (entry 0,
    which is right), and exp to inf where d rounds far below 0 (rows far
    beyond the kernel's scale), which the caller clamps at 1.
    """
    np.matmul(Xl, Zl.T, out=out)
    out *= -gamma
    np.exp(out, out=out)
    return out


def _rows_per_block(entries: int, n_cols: int) -> int:
    """Rows of a block of at most entries entries (one row at least)."""
    return max(1, entries // max(n_cols, 1))


def _rbf_into(K: np.ndarray, gamma: float, X: np.ndarray, Zl: np.ndarray) -> np.ndarray:
    """K(X, Z) written into K, X lifted one strip of rows at a time so
    that no lifted copy of all of X exists beside the output. Entries are
    clamped at 1, so they equal exp(-gamma max(d, 0)) exactly, also where
    -gamma d overflows to -inf (entry 0) or exp to inf (entry 1)."""
    step = _rows_per_block(_STRIP, K.shape[1])
    with np.errstate(over="ignore"):
        for lo in range(0, len(X), step):
            strip = _rbf_block(gamma, _lift_rows(X[lo:lo + step]), Zl, K[lo:lo + step])
            np.minimum(strip, 1.0, out=strip)
    return K


def _delta(a, b) -> np.ndarray:
    """len(a) x len(b) indicator D[i, j] = 1.0 if a[i] == b[j], else 0.0."""
    return (np.asarray(a)[:, None] == np.asarray(b)[None, :]).astype(float)


def _as_points(items) -> np.ndarray:
    try:
        X = np.asarray(items, dtype=float)
    except (TypeError, ValueError):  # strings, ragged rows, other objects
        raise InvalidInput("points must be numeric") from None
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidInput(f"expected a 2-D point array, got ndim={X.ndim}")
    return X


def gram(spec: KernelSpec, items) -> np.ndarray:
    """Dense Gram matrix K[i, j] = k(items[i], items[j]), exactly symmetric.

    RBF and delta Grams have an exact unit diagonal. The RBF Gram is filled
    in place, in strips of at most _STRIP entries on and right of the
    diagonal, K[lo:hi, lo:]: a strip's diagonal block is averaged with its
    transpose, the rest mirrored to K[hi:, lo:hi].
    """
    if spec.kind == DELTA:
        return _delta(items, items)
    X = _as_points(items)
    n = len(X)
    K = np.empty((n, n))
    Zl = _lift_columns(X)[0]
    step = _rows_per_block(_STRIP, n)
    for lo in range(0, n, step):
        hi = lo + step
        _rbf_into(K[lo:hi, lo:], spec.gamma, X[lo:hi], Zl[lo:])
        D = K[lo:hi, lo:hi]
        D += D.T  # numpy reads the overlapping D.T from a copy
        D *= 0.5
        K[hi:, lo:hi] = K[lo:hi, hi:].T
    np.fill_diagonal(K, 1.0)
    return K


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Cross-Gram matrix K[i, j] = k(X[i], Z[j]), shape N x N_T."""
    if spec.kind == DELTA:
        return _delta(X, Z)
    Xp = _as_points(X)
    Zp = _as_points(Z)
    if Xp.shape[1] != Zp.shape[1]:
        raise InvalidInput(
            f"feature dimension mismatch: {Xp.shape[1]} vs {Zp.shape[1]}"
        )
    return _rbf_into(np.empty((len(Xp), len(Zp))), spec.gamma, Xp, _lift_columns(Zp)[0])


def rbf_cross_product(gamma: float, Xl: np.ndarray, Z: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """weights^T K(X, Z) for the RBF kernel, shape m x N_T, given the
    lifted training rows Xl = _lift_rows(X), which the caller keeps.

    K is never formed: rows of Xl are taken max(1, _BLOCK // N_T) at a
    time into one reused block, so at most _BLOCK kernel entries exist at
    once whatever N_T is. Each block is GEMM, scale, exp and the weight
    product. Its entries are clamped at 1, as in cross_gram, only once
    gamma (d + 2) max |z|^2 reaches _UNCLAMPED_LIMIT; below it no entry
    exceeds 1 by more than about 2**-20. A single query takes the same
    steps on vectors (_rbf_query_product).
    """
    single = len(Z) == 1
    Zl, top = _lift_query(Z[0]) if single else _lift_columns(Z)
    tight = top < _UNCLAMPED_LIMIT / (float(gamma) * Xl.shape[1])
    # otherwise neither -gamma d (gamma <= 1) nor exp (tight) can overflow,
    # and a batch-1 call skips the errstate's microsecond
    with np.errstate(over="ignore") if gamma > 1 or not tight else contextlib.nullcontext():
        if single:
            return _rbf_query_product(gamma, Xl, Zl, weights, tight)[:, None]
        n_train, n_test = len(Xl), len(Z)
        out = np.zeros((weights.shape[1], n_test))
        step = _rows_per_block(_BLOCK, n_test)
        G = np.empty((min(step, n_train), n_test))
        for lo in range(0, n_train, step):
            hi = min(lo + step, n_train)
            block = _rbf_block(gamma, Xl[lo:hi], Zl, G[:hi - lo])
            if not tight:
                np.minimum(block, 1.0, out=block)
            out += weights[lo:hi].T @ block
    return out


def _rbf_query_product(gamma: float, Xl: np.ndarray, zl: np.ndarray,
                       weights: np.ndarray, tight: bool) -> np.ndarray:
    """weights^T k(X, z) as a vector, for zl = _lift_query(z)[0]: per
    _BLOCK rows of Xl, the steps of a batch of one in rbf_cross_product
    on vectors, so the same BLAS calls (GEMV; np.dot skips matmul's ufunc
    dispatch) and the same bits."""
    def block(lo):
        g = np.dot(Xl[lo:lo + _BLOCK], zl)  # freed on return: one block at a time
        g *= -gamma
        np.exp(g, out=g)
        if not tight:
            np.minimum(g, 1.0, out=g)
        return np.dot(weights[lo:lo + _BLOCK].T, g)

    out = block(0)  # a GEMV never returns -0.0, so this is 0 + block(0)
    for lo in range(_BLOCK, len(Xl), _BLOCK):
        out += block(lo)
    return out


def center_gram(K: np.ndarray) -> np.ndarray:
    """HKH of K, which must be a symmetric Gram (not checked), as K - (s_i +
    s_j) with s = mu - mean(mu) / 2 for the column means mu: exactly
    symmetric, in the one N x N array allocated."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or len(K) == 0:
        raise InvalidInput("center_gram expects a non-empty square matrix")
    mu = K.mean(axis=0)
    s = mu - mu.mean() / 2
    C = np.add.outer(s, s)
    return np.subtract(K, C, out=C)


def center_cross_from_means(Kz: np.ndarray, row_means: np.ndarray) -> np.ndarray:
    """Center test columns using precomputed training row means.

    Column j becomes H * (Kz[:, j] - row_means), where row_means is the
    per-row mean of the raw training Gram. Only training statistics enter,
    so a training point presented as a test point reproduces its centered
    Gram column.
    """
    Kz = np.asarray(Kz, dtype=float)
    mu = np.asarray(row_means, dtype=float).ravel()
    if Kz.shape[0] != mu.shape[0]:
        raise InvalidInput(
            f"row count mismatch: Kz has {Kz.shape[0]} rows, means have {mu.shape[0]}"
        )
    V = Kz - mu[:, None]
    return V - V.sum(axis=0, keepdims=True) / V.shape[0]
