"""Dense-path projection fitting and application.

The central fit solves, in coefficient space, a generalized eigenproblem
whose left side rewards directions predictive of the output and whose
right side penalizes directions that track the domain label. Both sides
are premultiplied by the (centered) input Gram; this is the construction
under which the rank-M landmark path (fastpath module) recovers the dense
solution exactly when every point is a landmark. In the eigenbasis of the
centered input Gram the same problem is an r x r symmetric-definite
pencil, so its spectrum is real by construction. Both sides are a
diagonal plus a low-rank term, rank c (output factor columns) on the left
and T (domains) on the right; build_operator_pair returns the low-rank
factors and linalg.lowrank_gen_eig finds the top m pairs from them.
That eigenbasis is a KernelFactor (kernel_factor); fits on the same rows
can share one through their factor= keyword. The landmark path runs the
same reduction and solve (_fit_factor) on the eigenbasis of its sketched
input Gram (fastpath.LandmarkFactor).

Degenerations: zeroing the domain Gram gives inverse-regression behavior
(coir); dropping supervision entirely reduces to kernel PCA (kpca).
"""
from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .datagen import DataSet
from .errors import InvalidInput, RankDeficient
from .kernels import (
    DELTA,
    RBF,
    KernelSpec,
    center_gram,
    centered_gram,
    gram,
    rbf_cross_product,
)
# gen_eig is bound here too because benchmark tracing reads covmin.dcm.gen_eig
from .linalg import gen_eig, lowrank_gen_eig, positive_eig  # noqa: F401

_MAGIC = b"CVPM"
_VERSION = 1


@dataclass
class ProjectionModel:
    """Fitted projection: coefficients over training points plus the data
    needed to project new inputs (training inputs, kernel spec, centering
    statistics). landmarks is None for dense fits.

    The first transform derives serving constants from these arrays and
    keeps them (see _serving), so edit a model's arrays before that call,
    not after.
    """

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

    @functools.cached_property
    def _serving(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(beta, offset, train_sq_norms) for transform.

        beta = H coef is the coefficients less their column means,
        offset = beta^T row_means, and train_sq_norms are the squared norms
        of the training rows. They are not serialized: a loaded model
        derives the same values bit for bit.
        """
        beta = self.coefficients - self.coefficients.mean(axis=0)
        return (beta, beta.T @ self.row_means,
                np.einsum("ij,ij->i", self.train_X, self.train_X))


def _check_input_kernel(spec_x) -> None:
    # transform evaluates the input kernel as an RBF (rbf_cross_product)
    if not isinstance(spec_x, KernelSpec) or spec_x.kind != RBF:
        raise InvalidInput(f"the input kernel must be rbf, got {spec_x!r}")


def _one_hot(values, levels) -> np.ndarray:
    """N x c indicator G[i, l] = 1.0 if values[i] == levels[l], else 0.0.

    This is the delta kernel between values and the c distinct levels, so
    G G^T is the delta Gram of values when every value is a level. A
    value that is no level gets a zero row.
    """
    return (np.asarray(values)[:, None] == np.asarray(levels)[None, :]).astype(float)


def _centered_factor(spec: KernelSpec, values) -> np.ndarray:
    """F with F F^T equal to the centered Gram of values under spec.

    Delta kernel: the centered one-hot matrix, N x (distinct values),
    exact. RBF: eigenvectors of the centered Gram scaled by the square
    roots of its positive eigenvalues.
    """
    if spec.kind == DELTA:
        G = _one_hot(values, np.unique(values))
        return G - G.mean(axis=0)
    pairs = positive_eig(center_gram(gram(spec, values)))
    return pairs.vectors * np.sqrt(pairs.values)[None, :]


def build_operator_pair(factor, Fy: np.ndarray, Fd: np.ndarray | None, epsilon: float):
    """Factors (Yy, Yd) of the reduced r x r pencil L w = mu (R + N eps I) w
    of the fit, with L = Yy^T Yy + lam^2 and R = Yd^T Yd + lam^2.

    The fit's N x N pencil, with Kx, Ky, Kd the centered input, output
    and domain Grams and P_k = K_k (K_k + N eps I)^-1, is

      (Kx P_y Kx^2 + Kx^2) v = mu (Kx P_d Kx^2 + Kx^2 + N eps I) v.

    factor is the input factor Kx = U diag(lam) U^T, U an orthonormal
    N x r basis: a KernelFactor (dense, U explicit) or a
    fastpath.LandmarkFactor (the sketched Gram, U = Cx omega implicit).
    Only its values lam, its N row_means and factor.project(F) = U^T F
    are used. The nonzero eigenvalues live on v = U diag(lam)^-1/2 w, and

      L = lam^3/2 Q_y lam^3/2 + lam^2,   R = lam^3/2 Q_d lam^3/2 + lam^2,

    with Q_k = U^T P_k U = (U^T F)(F^T F + N eps I)^-1 (U^T F)^T for the
    factor K_k = F F^T (push-through identity). So lam^3/2 Q_k lam^3/2 =
    Y^T Y with Y = C^-1 (U^T F lam^3/2)^T, C C^T = F^T F + N eps I: Yy
    has one row per column of Fy, Yd one per column of Fd. L is symmetric
    and R + N eps I positive definite; linalg.lowrank_gen_eig solves the
    pencil from these factors. Fd = None drops the domain term (coir), and
    Yd is then None.
    """
    if epsilon <= 0:
        raise InvalidInput("epsilon must be positive")
    N = len(factor.row_means)
    for name, F in (("output", Fy), ("domain", Fd)):
        if F is not None and F.shape[0] != N:
            raise InvalidInput(f"{name} factor has {F.shape[0]} rows, expected {N}")
    Ne = N * epsilon
    lam32 = factor.values ** 1.5

    def reduce(F):
        C = np.linalg.cholesky(F.T @ F + Ne * np.eye(F.shape[1]))
        return sla.solve_triangular(C, factor.project(F).T * lam32[None, :], lower=True)

    return reduce(Fy), None if Fd is None else reduce(Fd)


def _canonical_signs(coef: np.ndarray) -> np.ndarray:
    # fix each column's sign by its largest-magnitude entry, so fits are
    # reproducible under sample permutation
    for col in range(coef.shape[1]):
        j = int(np.argmax(np.abs(coef[:, col])))
        if coef[j, col] < 0:
            coef[:, col] = -coef[:, col]
    return coef


@dataclass
class KernelFactor:
    """Eigenbasis of the centered input Gram of the rows X under spec:
    H K H = vectors diag(values) vectors^T over the r eigenvalues above
    1e-12 * max(largest, 1) (linalg.positive_eig), values descending.
    row_means are the row means of the raw Gram K, which center test
    columns (kernels.center_cross_from_means).
    """

    spec: KernelSpec
    X: np.ndarray
    vectors: np.ndarray
    values: np.ndarray
    row_means: np.ndarray

    def project(self, F: np.ndarray) -> np.ndarray:
        """U^T F, U = vectors."""
        return self.vectors.T @ F

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """v = U diag(values)^-1/2 w, which has v^T (H K H) v = w^T w."""
        return self.vectors @ (w / np.sqrt(self.values)[:, None])


def kernel_factor(spec_x: KernelSpec, X) -> KernelFactor:
    """Build the KernelFactor of the rows X: one N x N Gram and one N x N
    symmetric eigendecomposition. fit_dcm, fit_coir and fit_kpca on a
    dataset with these rows accept it as factor=.
    """
    _check_input_kernel(spec_x)
    X = np.array(X, dtype=float)
    Kx, row_means = centered_gram(spec_x, X)
    pairs = positive_eig(Kx)
    return KernelFactor(spec=spec_x, X=X, vectors=pairs.vectors, values=pairs.values,
                        row_means=row_means)


def _input_factor(data: DataSet, spec_x, m: int, factor: KernelFactor | None):
    """The input factor of data.X, built unless given; it must span at least
    m directions."""
    _check_input_kernel(spec_x)
    N = data.X.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    if factor is None:
        factor = kernel_factor(spec_x, data.X)
    elif factor.spec != spec_x or not np.array_equal(factor.X, data.X):
        raise InvalidInput("factor was built from other rows or another input kernel")
    if len(factor.values) < m:
        raise RankDeficient(
            f"centered Gram has only {len(factor.values)} positive directions, need {m}"
        )
    return factor


def _model(algorithm, coef, eigenvalues, X, factor, landmarks=None) -> ProjectionModel:
    return ProjectionModel(
        algorithm=algorithm,
        coefficients=_canonical_signs(coef),
        eigenvalues=eigenvalues,
        train_X=X.copy(),
        spec_x=factor.spec,
        row_means=factor.row_means.copy(),
        landmarks=landmarks,
    )


def _fit_factor(algorithm, X, factor, Fy, Fd, epsilon, m, landmarks=None) -> ProjectionModel:
    """The fit tail shared by the dense and landmark paths: the top m
    pairs of the reduced pencil of factor (build_operator_pair), each
    direction scaled to unit norm under the factor's centered Gram."""
    Yy, Yd = build_operator_pair(factor, Fy, Fd, epsilon)
    pairs = lowrank_gen_eig(factor.values * factor.values, Yy, Yd, m,
                            ridge=len(X) * epsilon)
    return _model(algorithm, factor.coefficients(pairs.vectors), pairs.values, X, factor,
                  landmarks)


def _fit_projected(data: DataSet, spec_x, spec_y, spec_d, epsilon, m, algorithm,
                   zero_domain: bool, factor) -> ProjectionModel:
    factor = _input_factor(data, spec_x, m, factor)
    Fy = _centered_factor(spec_y or KernelSpec(DELTA), data.y)
    Fd = None if zero_domain else _centered_factor(spec_d or KernelSpec(DELTA), data.d)
    return _fit_factor(algorithm, data.X, factor, Fy, Fd, epsilon, m)


def fit_dcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
            spec_y: KernelSpec | None = None,
            spec_d: KernelSpec | None = None, *,
            factor: KernelFactor | None = None) -> ProjectionModel:
    """Fit the domain-suppressing projection on a multi-domain dataset.

    spec_y defaults to a delta kernel (discrete outputs); pass an RBF spec
    for continuous outputs. Retains the m directions with the largest
    eigenvalues, each scaled to unit norm under the centered input Gram.

    factor, when given, is kernel_factor(spec_x, data.X), which the fit
    then uses instead of building its own: fits of several algorithms on
    one split share one. It never changes the result. A factor of other
    rows (in another order too) or of another input kernel raises
    InvalidInput.

    Cost: one N x N symmetric eigendecomposition of the centered input
    Gram unless factor is given (and one of the output Gram for an RBF
    output kernel), O(N^3); then the top m pairs of an r x r
    symmetric-definite pencil, r the numerical rank of the input Gram, by
    Lanczos on its factors in O(iterations r (c + T)), c the output factor
    columns and T the domains. Memory O(N^2).
    """
    return _fit_projected(data, spec_x, spec_y, spec_d, epsilon, m, "dcm",
                          zero_domain=False, factor=factor)


def fit_coir(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
             spec_y: KernelSpec | None = None, *,
             factor: KernelFactor | None = None) -> ProjectionModel:
    """Single-domain degeneration: the domain term is dropped, so the
    right-hand operator is built from the input Gram alone. factor is
    used as in fit_dcm and never changes the result."""
    return _fit_projected(data, spec_x, spec_y, None, epsilon, m, "coir",
                          zero_domain=True, factor=factor)


def fit_kpca(data: DataSet, spec_x: KernelSpec, m: int, *,
             factor: KernelFactor | None = None) -> ProjectionModel:
    """Unsupervised degeneration: top-m eigenvectors of the centered input
    Gram, scaled like the other fits (unit norm under the Gram). factor is
    used as in fit_dcm and never changes the result."""
    factor = _input_factor(data, spec_x, m, factor)
    vals = factor.values[:m]
    coef = factor.vectors[:, :m] / np.sqrt(vals)[None, :]
    return _model("kpca", coef, vals, data.X, factor)


def transform(model: ProjectionModel, Z) -> np.ndarray:
    """Project new inputs; returns an m x N_T coordinate matrix.

    The result is coef^T H (K(X, Z) - row_means 1^T): the fitted
    coefficients applied to the training-to-test cross-Gram centered
    against training statistics. It is evaluated as beta^T K(X, Z) - offset
    with beta = H coef (see ProjectionModel._serving), one fused pass over
    blocks of training rows. Projecting the training inputs reproduces the
    coefficients applied to the centered training Gram.

    Cost: O(N N_T d) time. Working memory beyond the m x N_T result is
    O(B), B = kernels._BLOCK entries (2 MB), whatever N_T is.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if Z.shape[1] != model.train_X.shape[1]:
        raise InvalidInput(
            f"feature dimension mismatch: model has {model.train_X.shape[1]}, "
            f"got {Z.shape[1]}"
        )
    if not np.isfinite(Z).all():
        raise InvalidInput("query points must be finite")
    beta, offset, train_sq_norms = model._serving
    out = rbf_cross_product(model.spec_x.gamma, model.train_X, train_sq_norms, Z, beta)
    out -= offset[:, None]
    return out


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


_HEADER_COUNTS = ("n_train", "n_features", "m", "n_landmarks")


def _parse_header(blob: bytes, path: str) -> dict:
    try:
        header = json.loads(blob)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvalidInput(f"{path}: model header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise InvalidInput(f"{path}: model header is not a JSON object")
    missing = [k for k in (*_HEADER_COUNTS, "algorithm", "kernel_kind", "kernel_gamma")
               if k not in header]
    if missing:
        raise InvalidInput(f"{path}: model header lacks {missing}")
    bad = [k for k in _HEADER_COUNTS
           if type(header[k]) is not int or header[k] < 0]
    if bad:
        raise InvalidInput(f"{path}: model header counts {bad} are not non-negative integers")
    if header["kernel_kind"] != RBF:
        raise InvalidInput(f"{path}: model kernel {header['kernel_kind']!r} is not rbf")
    return header


def load_model(path: str) -> ProjectionModel:
    """Inverse of save_model; validates magic, version and, before any
    array is decoded, that the payload length matches the header."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InvalidInput(f"{path}: not a projection model file")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, path))
        if version != _VERSION:
            raise InvalidInput(f"{path}: unsupported model version {version}")
        header = _parse_header(_read_exact(fh, hlen, path), path)
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
