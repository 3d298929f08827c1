"""Kernel evaluation, Gram assembly, and centering.

All projection models in this package operate on centered Gram matrices,
which realizes the zero-mean feature-map convention: K <- HKH with
H = I - (1/N) 11^T. Test columns are centered against training statistics
only, so transforming new data never peeks at test-set means. Serving
never forms those centered columns: centering is linear, so
coef^T H (K(X, Z) - mu 1^T) = beta^T K(X, Z) - (beta^T mu) 1^T with
beta = H coef, and rbf_cross_product evaluates beta^T K(X, Z) block by
block. The training row means mu still come from the training Gram alone.
gram, cross_gram and each such block turn X Z^T into K(X, Z) in place
(_rbf_block); _delta is the one indicator behind every delta kernel.
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

    kind is "rbf" (k(a,b) = exp(-gamma * ||a-b||^2), gamma = 1/(2 sigma^2))
    or "delta" (k(a,b) = 1 if a == b else 0). gamma is ignored for delta.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in (RBF, DELTA):
            raise InvalidInput(f"unknown kernel kind: {self.kind!r}")
        if self.kind == RBF:
            if not isinstance(self.gamma, numbers.Real) or not self.gamma > 0:
                raise InvalidInput("rbf kernel requires gamma > 0")


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


def _rbf_block(G, gamma: float, x_sq_norms, z_sq_norms) -> np.ndarray:
    """K(X, Z), computed in G = X Z^T from the rows' squared norms."""
    G *= -2.0
    G += x_sq_norms[:, None]
    G += z_sq_norms
    np.maximum(G, 0.0, out=G)
    G *= -gamma
    np.exp(G, out=G)
    return G


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
    RBF Gram is made exactly symmetric in place, (K + K^T) / 2 over strips
    of at most _BLOCK entries, so it needs no second N x N array.
    """
    if spec.kind == DELTA:
        return _delta(items, items)
    X = _as_points(items)
    sx = np.einsum("ij,ij->i", X, X)
    K = _rbf_block(X @ X.T, spec.gamma, sx, sx)
    n = len(K)
    step = max(1, _BLOCK // max(n, 1))
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
    return _rbf_block(Xp @ Zp.T, spec.gamma, np.einsum("ij,ij->i", Xp, Xp),
                      np.einsum("ij,ij->i", Zp, Zp))


def rbf_cross_product(gamma: float, X: np.ndarray, x_sq_norms: np.ndarray,
                      Z: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights^T K(X, Z) for the RBF kernel, shape m x N_T.

    K is never formed: rows of X are taken max(1, _BLOCK // N_T) at a
    time, so at most _BLOCK kernel entries exist at once whatever N_T is.
    x_sq_norms are the squared row norms of X, which the caller keeps.
    """
    sz = np.einsum("ij,ij->i", Z, Z)
    n_test = Z.shape[0]
    out = np.zeros((weights.shape[1], n_test))
    step = max(1, _BLOCK // max(n_test, 1))
    for lo in range(0, X.shape[0], step):
        hi = lo + step
        G = _rbf_block(X[lo:hi] @ Z.T, gamma, x_sq_norms[lo:hi], sz)
        out += weights[lo:hi].T @ G
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
