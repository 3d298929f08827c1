"""Kernel evaluation, Gram assembly, and centering.

All projection models in this package operate on centered Gram matrices,
which realizes the zero-mean feature-map convention: K <- HKH with
H = I - (1/N) 11^T. Test columns are centered against training statistics
only, so transforming new data never peeks at test-set means. Serving
never forms those centered columns: centering is linear, so
coef^T H (K(X, Z) - mu 1^T) = beta^T K(X, Z) - (beta^T mu) 1^T with
beta = H coef, and rbf_cross_product evaluates beta^T K(X, Z) block by
block. The training row means mu still come from the training Gram alone.

There is one RBF evaluator, _rbf_block, behind gram, cross_gram and every
rbf_cross_product block. Rows are lifted to [x, |x|^2, 1] (_lift_rows) and
columns to [-2z, 1, |z|^2] (_lift_columns), so one matrix product gives
||x - z||^2, and the block takes three in-place passes after it: clamp
at 0, scale by -gamma, exp. gamma stays out of the product, so identical
1-D values give a distance of exactly 0 and a kernel entry of exactly 1.
_delta is the one indicator behind every delta kernel.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

RBF = "rbf"
DELTA = "delta"

#: kernel entries per block of rbf_cross_product (2**18 float64, 2 MB)
_BLOCK = 2 ** 18


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
            if not isinstance(self.gamma, numbers.Real) or not 0 < self.gamma < np.inf:
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


def _lift_rows(X: np.ndarray) -> np.ndarray:
    """[X, |x|^2, 1], N x (d + 2): the rows of a distance product."""
    n, d = X.shape
    L = np.empty((n, d + 2))
    L[:, :d] = X
    L[:, d] = np.einsum("ij,ij->i", X, X)
    L[:, d + 1] = 1.0
    return L


def _lift_columns(Z: np.ndarray) -> np.ndarray:
    """[-2Z, 1, |z|^2], N_T x (d + 2): _lift_rows(X) @ _lift_columns(Z).T
    is the matrix of squared distances ||x - z||^2."""
    n, d = Z.shape
    L = np.empty((n, d + 2))
    np.multiply(Z, -2.0, out=L[:, :d])
    L[:, d] = 1.0
    L[:, d + 1] = np.einsum("ij,ij->i", Z, Z)
    return L


def _rbf_block(gamma: float, Xl: np.ndarray, Zl: np.ndarray, out: np.ndarray) -> np.ndarray:
    """K(X, Z) in out, from the lifted rows Xl of X and lifted columns Zl
    of Z: one GEMM writes ||x - z||^2 into out, which is then clamped at
    0 (rounding can leave it slightly negative), scaled by -gamma and
    exponentiated in place."""
    np.matmul(Xl, Zl.T, out=out)
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    np.exp(out, out=out)
    return out


def _rows_per_block(n_cols: int) -> int:
    """Rows of a block of at most _BLOCK entries (one row at least)."""
    return max(1, _BLOCK // max(n_cols, 1))


def _rbf_into(K: np.ndarray, gamma: float, X: np.ndarray, Zl: np.ndarray) -> np.ndarray:
    """K(X, Z) written into K, X lifted one strip of rows at a time so
    that no lifted copy of all of X exists beside the output."""
    step = _rows_per_block(K.shape[1])
    for lo in range(0, len(X), step):
        _rbf_block(gamma, _lift_rows(X[lo:lo + step]), Zl, K[lo:lo + step])
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
    """Dense Gram matrix K[i, j] = k(items[i], items[j]).

    RBF and delta Grams both carry a unit diagonal, enforced exactly. The
    RBF Gram is evaluated into its output in strips of at most _BLOCK
    entries, then made exactly symmetric in place, (K + K^T) / 2 over
    strips of the same size, so it needs no second N x N array.
    """
    if spec.kind == DELTA:
        return _delta(items, items)
    X = _as_points(items)
    n = len(X)
    K = _rbf_into(np.empty((n, n)), spec.gamma, X, _lift_columns(X))
    step = _rows_per_block(n)
    for lo in range(0, n, step):
        hi = lo + step
        # the strip K[lo:hi, lo:] and its mirror K[lo:, lo:hi]; earlier
        # strips touched no entry whose row and column are both >= lo
        S = K[lo:hi, lo:] + K[lo:, lo:hi].T
        S *= 0.5
        K[lo:hi, lo:] = S
        K[lo:, lo:hi] = S.T
        del S  # so that the next strip's S is the only one alive
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
    return _rbf_into(np.empty((len(Xp), len(Zp))), spec.gamma, Xp, _lift_columns(Zp))


def rbf_cross_product(gamma: float, Xl: np.ndarray, Z: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """weights^T K(X, Z) for the RBF kernel, shape m x N_T, given the
    lifted training rows Xl = _lift_rows(X), which the caller keeps.

    K is never formed: rows of Xl are taken max(1, _BLOCK // N_T) at a
    time into one reused block, so at most _BLOCK kernel entries exist at
    once whatever N_T is.
    """
    Zl = _lift_columns(Z)
    n_train, n_test = len(Xl), len(Z)
    out = np.zeros((weights.shape[1], n_test))
    step = _rows_per_block(n_test)
    G = np.empty((min(step, n_train), n_test))
    for lo in range(0, n_train, step):
        hi = min(lo + step, n_train)
        out += weights[lo:hi].T @ _rbf_block(gamma, Xl[lo:hi], Zl, G[:hi - lo])
    return out


def center_gram(K: np.ndarray) -> np.ndarray:
    """Double-center a square Gram: K <- HKH, symmetrized."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInput("center_gram expects a square matrix")
    row_means = K.mean(axis=0)
    total = row_means.mean()
    C = K - row_means[None, :] - row_means[:, None] + total
    return 0.5 * (C + C.T)


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
