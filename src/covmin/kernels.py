"""Kernel evaluation, Gram assembly, and centering.

All projection models in this package operate on centered Gram matrices,
which realizes the zero-mean feature-map convention: K <- HKH with
H = I - (1/N) 11^T. Test columns are centered against training statistics
only, so transforming new data never peeks at test-set means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

RBF = "rbf"
DELTA = "delta"


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
            if self.gamma is None or not self.gamma > 0:
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


def _sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    sx = np.einsum("ij,ij->i", X, X)
    sz = np.einsum("ij,ij->i", Z, Z)
    D2 = sx[:, None] + sz[None, :] - 2.0 * (X @ Z.T)
    np.maximum(D2, 0.0, out=D2)
    return D2


def _as_points(items) -> np.ndarray:
    X = np.asarray(items, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidInput(f"expected a 2-D point array, got ndim={X.ndim}")
    return X


def gram(spec: KernelSpec, items) -> np.ndarray:
    """Dense Gram matrix K[i, j] = k(items[i], items[j]).

    RBF and delta Grams both carry a unit diagonal, enforced exactly.
    """
    if spec.kind == DELTA:
        labels = np.asarray(items)
        K = (labels[:, None] == labels[None, :]).astype(float)
        return K
    X = _as_points(items)
    K = np.exp(-spec.gamma * _sq_dists(X, X))
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Cross-Gram matrix K[i, j] = k(X[i], Z[j]), shape N x N_T."""
    if spec.kind == DELTA:
        a = np.asarray(X)
        b = np.asarray(Z)
        return (a[:, None] == b[None, :]).astype(float)
    Xp = _as_points(X)
    Zp = _as_points(Z)
    if Xp.shape[1] != Zp.shape[1]:
        raise InvalidInput(
            f"feature dimension mismatch: {Xp.shape[1]} vs {Zp.shape[1]}"
        )
    return np.exp(-spec.gamma * _sq_dists(Xp, Zp))


def center_gram(K: np.ndarray) -> np.ndarray:
    """Double-center a square Gram: K <- HKH, symmetrized."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInput("center_gram expects a square matrix")
    row_means = K.mean(axis=0)
    total = row_means.mean()
    C = K - row_means[None, :] - row_means[:, None] + total
    return 0.5 * (C + C.T)


def centered_gram(spec: KernelSpec, items) -> tuple[np.ndarray, np.ndarray]:
    """Centered training Gram plus the row means of the raw Gram, which
    center_cross_from_means needs to center test columns later."""
    K = gram(spec, items)
    row_means = K.mean(axis=1)
    return center_gram(K), row_means


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
    return V - V.mean(axis=0, keepdims=True)
