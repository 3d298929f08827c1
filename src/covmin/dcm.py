"""Dense-path projection fitting and application.

The central fit solves, in coefficient space, a generalized eigenproblem
whose left side rewards directions predictive of the output and whose
right side penalizes directions that track the domain label. Both sides
are premultiplied by the (centered) input Gram before solving; this is
the construction under which the rank-M landmark path (fastpath module)
recovers the dense solution exactly when every point is a landmark, and
it leaves the retained spectrum real in practice.

Degenerations: zeroing the domain Gram gives inverse-regression behavior
(coir); dropping supervision entirely reduces to kernel PCA (kpca).
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .datagen import DataSet
from .errors import InvalidInput, RankDeficient
from .kernels import (
    DELTA,
    KernelSpec,
    center_cross_from_means,
    center_gram,
    centered_gram,
    cross_gram,
    gram,
)
from .linalg import gen_eig, sym_eig

_MAGIC = b"CVPM"
_VERSION = 1


@dataclass
class ProjectionModel:
    """Fitted projection: coefficients over training points plus the data
    needed to project new inputs (training inputs, kernel spec, centering
    statistics). landmarks is None for dense fits."""

    algorithm: str
    coefficients: np.ndarray
    eigenvalues: np.ndarray
    train_X: np.ndarray
    spec_x: KernelSpec
    row_means: np.ndarray
    landmarks: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.coefficients.shape[1]


def build_operator_pair(Kx: np.ndarray, Ky: np.ndarray, Kd: np.ndarray,
                        epsilon: float):
    """Left/right operators of the fitting eigenproblem, from the centered
    input, output and domain Grams.

    A = Ky (Ky + N eps I)^-1 Kx Kx + Kx
    B = Kd (Kd + N eps I)^-1 Kx Kx + Kx

    With Kd = 0 the right side is exactly Kx.
    """
    if epsilon <= 0:
        raise InvalidInput("epsilon must be positive")
    N = Kx.shape[0]
    for name, K in (("Kx", Kx), ("Ky", Ky), ("Kd", Kd)):
        scale = np.abs(K).max() or 1.0
        if np.abs(K - K.T).max() > 1e-8 * scale:
            raise InvalidInput(f"{name} is not symmetric")
        if K.diagonal().min() < -1e-10 * scale:
            raise InvalidInput(f"{name} has a negative diagonal; not PSD")
    KxKx = Kx @ Kx
    ridge = N * epsilon * np.eye(N)
    A = Ky @ np.linalg.solve(Ky + ridge, KxKx) + Kx
    if np.abs(Kd).max() == 0.0:
        B = Kx.copy()
    else:
        B = Kd @ np.linalg.solve(Kd + ridge, KxKx) + Kx
    return A, B


def _canonical_signs(coef: np.ndarray) -> np.ndarray:
    # fix each column's sign by its largest-magnitude entry, so fits are
    # reproducible under sample permutation
    for col in range(coef.shape[1]):
        j = int(np.argmax(np.abs(coef[:, col])))
        if coef[j, col] < 0:
            coef[:, col] = -coef[:, col]
    return coef


def _normalize_against(coef: np.ndarray, Kx: np.ndarray) -> np.ndarray:
    for col in range(coef.shape[1]):
        s = float(coef[:, col] @ Kx @ coef[:, col])
        s = abs(s)
        if s < 1e-300:
            raise RankDeficient("projection direction has zero norm under Kx")
        coef[:, col] /= np.sqrt(s)
    return coef


def _fit_projected(data: DataSet, spec_x, spec_y, spec_d, epsilon, m, algorithm,
                   zero_domain: bool) -> ProjectionModel:
    X = data.X
    N = X.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    spec_y = spec_y or KernelSpec(DELTA)
    spec_d = spec_d or KernelSpec(DELTA)
    Kx, row_means = centered_gram(spec_x, X)
    Ky = center_gram(gram(spec_y, data.y))
    Kd = np.zeros_like(Kx) if zero_domain else center_gram(gram(spec_d, data.d))
    A, B = build_operator_pair(Kx, Ky, Kd, epsilon)
    pairs = gen_eig(Kx @ A, Kx @ B, m, ridge=N * epsilon)
    coef = _normalize_against(pairs.vectors.copy(), Kx)
    coef = _canonical_signs(coef)
    return ProjectionModel(
        algorithm=algorithm,
        coefficients=coef,
        eigenvalues=pairs.values,
        train_X=X.copy(),
        spec_x=spec_x,
        row_means=row_means,
    )


def fit_dcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
            spec_y: KernelSpec | None = None,
            spec_d: KernelSpec | None = None) -> ProjectionModel:
    """Fit the domain-suppressing projection on a multi-domain dataset.

    spec_y defaults to a delta kernel (discrete outputs); pass an RBF spec
    for continuous outputs. Retains the m directions with the largest
    eigenvalues, each scaled to unit norm under the centered input Gram.
    """
    return _fit_projected(data, spec_x, spec_y, spec_d, epsilon, m, "dcm",
                          zero_domain=False)


def fit_coir(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
             spec_y: KernelSpec | None = None) -> ProjectionModel:
    """Single-domain degeneration: the domain Gram is zeroed, so the
    right-hand operator is the input Gram alone."""
    return _fit_projected(data, spec_x, spec_y, None, epsilon, m, "coir",
                          zero_domain=True)


def fit_kpca(data: DataSet, spec_x: KernelSpec, m: int) -> ProjectionModel:
    """Unsupervised degeneration: top-m eigenvectors of the centered input
    Gram, scaled like the other fits (unit norm under the Gram)."""
    X = data.X
    N = X.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    Kx, row_means = centered_gram(spec_x, X)
    pairs = sym_eig(Kx)
    positive = pairs.values > 1e-12 * max(pairs.values[0], 1.0)
    if positive[:m].sum() < m:
        raise RankDeficient(
            f"centered Gram has only {int(positive.sum())} positive directions, need {m}"
        )
    vals = pairs.values[:m]
    coef = pairs.vectors[:, :m] / np.sqrt(vals)[None, :]
    coef = _canonical_signs(coef)
    return ProjectionModel(
        algorithm="kpca",
        coefficients=coef,
        eigenvalues=vals,
        train_X=X.copy(),
        spec_x=spec_x,
        row_means=row_means,
    )


def transform(model: ProjectionModel, Z) -> np.ndarray:
    """Project new inputs; returns an m x N_T coordinate matrix.

    Builds the training-to-test cross-Gram, centers it against training
    statistics, and applies the fitted coefficients. Projecting the
    training inputs reproduces the coefficients applied to the centered
    training Gram.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[1] != model.train_X.shape[1]:
        raise InvalidInput(
            f"feature dimension mismatch: model has {model.train_X.shape[1]}, "
            f"got {Z.shape[1]}"
        )
    Kz = cross_gram(model.spec_x, model.train_X, Z)
    Kz = center_cross_from_means(Kz, model.row_means)
    return model.coefficients.T @ Kz


def save_model(model: ProjectionModel, path: str) -> None:
    """Serialize a model to a versioned binary container.

    Layout: 4-byte magic, u32 version, u32 header length, JSON header,
    then little-endian float64 blocks (coefficients, eigenvalues,
    row_means, train_X) and int64 landmarks when present.
    """
    header = {
        "algorithm": model.algorithm,
        "n_train": int(model.train_X.shape[0]),
        "n_features": int(model.train_X.shape[1]),
        "m": int(model.m),
        "kernel_kind": model.spec_x.kind,
        "kernel_gamma": model.spec_x.gamma,
        "n_landmarks": 0 if model.landmarks is None else int(len(model.landmarks)),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for arr in (model.coefficients, model.eigenvalues, model.row_means, model.train_X):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if model.landmarks is not None:
            fh.write(np.ascontiguousarray(model.landmarks, dtype="<i8").tobytes())


def _read_exact(fh, count: int, path: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise InvalidInput(f"{path}: truncated model header")
    return data


def load_model(path: str) -> ProjectionModel:
    """Inverse of save_model; validates magic, version and, before any
    array is decoded, that the payload length matches the header."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InvalidInput(f"{path}: not a projection model file")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, path))
        if version != _VERSION:
            raise InvalidInput(f"{path}: unsupported model version {version}")
        header = json.loads(_read_exact(fh, hlen, path))
        N = header["n_train"]
        n = header["n_features"]
        m = header["m"]
        expected = 8 * (N * m + m + N + N * n + header["n_landmarks"])
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise InvalidInput(
                f"{path}: payload is {actual} bytes, header implies {expected}"
            )

        def block(count):
            return np.frombuffer(fh.read(8 * count), dtype="<f8").copy()

        coef = block(N * m).reshape(N, m)
        eigenvalues = block(m)
        row_means = block(N)
        train_X = block(N * n).reshape(N, n)
        landmarks = None
        if header["n_landmarks"]:
            landmarks = np.frombuffer(
                fh.read(8 * header["n_landmarks"]), dtype="<i8"
            ).copy()
    gamma = header["kernel_gamma"]
    spec = KernelSpec(header["kernel_kind"], gamma)
    return ProjectionModel(
        algorithm=header["algorithm"],
        coefficients=coef,
        eigenvalues=eigenvalues,
        train_X=train_X,
        spec_x=spec,
        row_means=row_means,
        landmarks=landmarks,
    )
