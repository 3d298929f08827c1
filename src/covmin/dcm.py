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
Every fit ends in one tail, _fit_factor, which takes an input factor and
the output and domain kernel specs, nothing else. An input factor is the
eigenbasis H K H = U diag(values) U^T of the centered input Gram K of the
training rows, exact (KernelFactor, from kernel_factor; fits on the same
rows share one through factor=) or landmark-approximated
(fastpath.NystromSketch, from fastpath.build_sketch). Neither forms the
N x r matrix U: the exact factor keeps it as Householder reflectors and
the eigenvectors of a tridiagonal matrix, the landmark factor as a
kernel block times an M x r matrix. A factor has values (descending),
row_means (of the raw Gram, for transform), landmarks (None when exact),
project(F) = U^T F, coefficients(w) = U diag(values)^-1/2 w, and
side(spec, values): a factor F of the centered Gram of values under
spec on the same approximation, exact (_centered_factor) or Nystrom on
the same landmarks (fastpath._side_factor).

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
    _as_points,
    _lift_rows,
    center_gram,
    cross_gram,
    gram,
    rbf_cross_product,
)
# gen_eig is bound here too because benchmark tracing reads covmin.dcm.gen_eig
from .linalg import ReflectorBasis, factored_sym_eig, gen_eig, lowrank_gen_eig  # noqa: F401

#: eigenvalues at or below this fraction of max(largest, 1) count as zero
_POSITIVE_TOL = 1e-12

_MAGIC = b"CVPM"
_VERSION = 1


@dataclass
class ProjectionModel:
    """Fitted projection: coefficients over training points plus the data
    needed to project new inputs (training inputs, kernel spec, centering
    statistics). landmarks is None for dense fits.

    The first transform derives serving constants from these arrays and
    keeps them (see _serving): the centered coefficients, their offset
    and the N x (d + 2) lifted training rows. Edit a model's arrays,
    train_X included, before that call; later edits are not served.
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
        """(beta, offset, lifted_X) for transform.

        beta = H coef is the coefficients less their column means,
        offset = beta^T row_means, and lifted_X = [train_X, |x|^2, 1] are
        the lifted training rows of kernels.rbf_cross_product. They are
        not serialized: a loaded model derives the same values bit for bit,
        since both read the coefficients in C order (a kpca fit holds them
        in Fortran order, which rounds the column means differently).
        """
        coef = np.ascontiguousarray(self.coefficients)
        beta = coef - coef.mean(axis=0)
        return beta, beta.T @ self.row_means, _lift_rows(self.train_X)


def _check_input_kernel(spec_x) -> None:
    # transform evaluates the input kernel as an RBF (rbf_cross_product)
    if not isinstance(spec_x, KernelSpec) or spec_x.kind != RBF:
        raise InvalidInput(f"the input kernel must be rbf, got {spec_x!r}")


def _centered_factor(spec: KernelSpec, values) -> np.ndarray:
    """F with F F^T equal to the centered Gram of values under spec.

    Delta kernel: the centered one-hot matrix, N x (distinct values),
    exact. RBF: the pivoted Cholesky factor of the raw Gram K (LAPACK
    dpstrf, blocked, in place), N x k for the k pivots taken before the
    largest remaining diagonal falls under LAPACK's default tolerance,
    N * machine epsilon * max diagonal. Its column means are subtracted,
    which is exact: (H F)(H F)^T = H K H.
    """
    if spec.kind == DELTA:
        G = cross_gram(spec, values, np.unique(values))
        return G - G.mean(axis=0)
    # K.T is K in Fortran order, which lets dpstrf overwrite it in place
    c, piv, rank, _ = sla.lapack.dpstrf(gram(spec, values).T, lower=1, overwrite_a=1)
    L = np.tril(c[:, :rank])
    del c  # the Gram, factored in place
    # P^T K P = L L^T with P e_i = e_(piv[i] - 1): F = P L
    F = L[np.argsort(piv)]
    F -= F.mean(axis=0)
    return F


def build_operator_pair(factor, Fy: np.ndarray, Fd: np.ndarray | None, epsilon: float):
    """Factors (Yy, Yd) of the reduced r x r pencil L w = mu (R + N eps I) w
    of the fit, with L = Yy^T Yy + lam^2 and R = Yd^T Yd + lam^2.

    The fit's N x N pencil, with Kx, Ky, Kd the centered input, output
    and domain Grams and P_k = K_k (K_k + N eps I)^-1, is

      (Kx P_y Kx^2 + Kx^2) v = mu (Kx P_d Kx^2 + Kx^2 + N eps I) v.

    factor is an input factor Kx = U diag(lam) U^T (module docstring), of
    which only values lam, row_means and project(F) = U^T F are used.
    The nonzero eigenvalues live on v = U diag(lam)^-1/2 w, and

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
    """Exact input factor (module docstring), the eigenbasis of the
    centered input Gram of the rows X under spec:
    H K H = U diag(values) U^T over the r eigenvalues above
    1e-12 * max(largest, 1), values descending, with U kept factored
    (basis, a linalg.ReflectorBasis). row_means are the row means of the
    raw Gram K; a fitted model keeps them and transform subtracts their
    projection beta^T row_means.
    """

    spec: KernelSpec
    X: np.ndarray
    basis: ReflectorBasis
    values: np.ndarray
    row_means: np.ndarray
    landmarks = None
    side = staticmethod(_centered_factor)

    def project(self, F: np.ndarray) -> np.ndarray:
        """U^T F."""
        return self.basis.project(F)

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """v = U diag(values)^-1/2 w, which has v^T (H K H) v = w^T w."""
        return self.basis.expand(w / np.sqrt(self.values)[:, None])


def kernel_factor(spec_x: KernelSpec, X) -> KernelFactor:
    """Build the KernelFactor of the rows X: one N x N Gram and the
    eigendecomposition of its centered form (linalg.factored_sym_eig).
    fit_dcm, fit_coir and fit_kpca on a dataset with these rows accept it
    as factor=.

    Cost: the Gram in O(N^2 d), then 4/3 N^3 for the tridiagonal reduction
    plus the divide-and-conquer tridiagonal solver (dstedc), with no N x N
    back-transformation. Memory: three N x N arrays, the centered Gram
    (which the reduction overwrites with its reflectors), the tridiagonal
    eigenvectors and the solver's workspace; the factor keeps the
    reflectors and the r kept eigenvectors.
    """
    _check_input_kernel(spec_x)
    X = np.array(X, dtype=float)
    if len(X) == 0:
        raise InvalidInput("kernel_factor needs at least one row")
    K = gram(spec_x, X)
    row_means = K.mean(axis=1)
    K = center_gram(K)
    values, basis = factored_sym_eig(K, tol=_POSITIVE_TOL)
    return KernelFactor(spec=spec_x, X=X, basis=basis, values=values, row_means=row_means)


def _landmark_indices(landmarks, N: int) -> np.ndarray:
    """landmarks as int64 indices, checked to be distinct and in [0, N);
    landmark fits and load_model share this check."""
    idx = np.asarray(landmarks)
    if idx.ndim != 1 or len(idx) == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise InvalidInput("landmarks must be a non-empty 1-D array of integer indices")
    if idx.min() < 0 or idx.max() >= N:
        raise InvalidInput(f"landmark indices must lie in [0, {N})")
    if len(np.unique(idx)) != len(idx):
        raise InvalidInput("landmark indices must be distinct")
    return idx.astype(np.int64)


def _input_factor(data: DataSet, spec_x, m: int, factor: KernelFactor | None):
    """The input factor of data.X, built unless given."""
    N = data.X.shape[0]
    if not 1 <= m <= N:
        raise InvalidInput(f"m must be in [1, {N}], got {m}")
    if factor is None:
        return kernel_factor(spec_x, data.X)
    _check_input_kernel(spec_x)
    if factor.spec != spec_x or not np.array_equal(factor.X, data.X):
        raise InvalidInput("factor was built from other rows or another input kernel")
    return factor


def _require_rank(factor, m: int) -> None:
    if len(factor.values) < m:
        raise RankDeficient(
            f"centered Gram has only {len(factor.values)} positive directions, need {m}"
        )


def _model(algorithm, coef, eigenvalues, X, factor) -> ProjectionModel:
    return ProjectionModel(
        algorithm=algorithm,
        coefficients=_canonical_signs(coef),
        eigenvalues=eigenvalues,
        train_X=X.copy(),
        spec_x=factor.spec,
        row_means=factor.row_means.copy(),
        landmarks=factor.landmarks,
    )


def _fit_factor(algorithm, data: DataSet, factor, spec_y, spec_d, epsilon, m) -> ProjectionModel:
    """The fit tail of both paths (module docstring): the top m pairs of
    the reduced pencil of the input factor of data.X, which must span m
    directions, each scaled to unit norm under its centered Gram. spec_y
    defaults to delta; spec_d is delta, or None to drop the domain term.
    """
    _require_rank(factor, m)
    Fy = factor.side(spec_y or KernelSpec(DELTA), data.y)
    Fd = None if spec_d is None else factor.side(spec_d, data.d)
    Yy, Yd = build_operator_pair(factor, Fy, Fd, epsilon)
    pairs = lowrank_gen_eig(factor.values * factor.values, Yy, Yd, m,
                            ridge=len(data) * epsilon)
    return _model(algorithm, factor.coefficients(pairs.vectors), pairs.values, data.X, factor)


def fit_dcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
            spec_y: KernelSpec | None = None, *,
            factor: KernelFactor | None = None) -> ProjectionModel:
    """Fit the domain-suppressing projection on a multi-domain dataset.

    spec_y defaults to a delta kernel (discrete outputs); pass an RBF spec
    for continuous outputs. The domain kernel is the delta indicator of
    data.d. Retains the m directions with the largest eigenvalues, each
    scaled to unit norm under the centered input Gram.

    factor, when given, is kernel_factor(spec_x, data.X), which the fit
    then uses instead of building its own: fits of several algorithms on
    one split share one. It never changes the result. A factor of other
    rows (in another order too) or of another input kernel raises
    InvalidInput.

    Cost: kernel_factor's unless factor is given (4/3 N^3 and a
    tridiagonal eigensolve, no N x N back-transformation), and
    O(N^2 (c + T + m)) to apply its basis to the side factors and the
    coefficients; for an RBF output kernel, a pivoted Cholesky factor of
    the output Gram in O(N k^2), k its columns;
    then the top m pairs of an r x r symmetric-definite pencil, r the
    numerical rank of the input Gram, by Lanczos on its factors in
    O(iterations r (c + T)), c the output factor columns and T the
    domains. Memory O(N^2).
    """
    return _fit_factor("dcm", data, _input_factor(data, spec_x, m, factor),
                       spec_y, KernelSpec(DELTA), epsilon, m)


def fit_coir(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
             spec_y: KernelSpec | None = None, *,
             factor: KernelFactor | None = None) -> ProjectionModel:
    """Single-domain degeneration: the domain term is dropped, so the
    right-hand operator is built from the input Gram alone. factor is
    used as in fit_dcm and never changes the result."""
    return _fit_factor("coir", data, _input_factor(data, spec_x, m, factor),
                       spec_y, None, epsilon, m)


def fit_kpca(data: DataSet, spec_x: KernelSpec, m: int, *,
             factor: KernelFactor | None = None) -> ProjectionModel:
    """Unsupervised degeneration: top-m eigenvectors of the centered input
    Gram, scaled like the other fits (unit norm under the Gram). factor is
    used as in fit_dcm and never changes the result."""
    factor = _input_factor(data, spec_x, m, factor)
    _require_rank(factor, m)
    coef = factor.coefficients(np.eye(len(factor.values), m))
    return _model("kpca", coef, factor.values[:m], data.X, factor)


def transform(model: ProjectionModel, Z) -> np.ndarray:
    """Project new inputs; returns an m x N_T coordinate matrix.

    The result is coef^T H (K(X, Z) - row_means 1^T): the fitted
    coefficients applied to the training-to-test cross-Gram centered
    against training statistics. It is evaluated as beta^T K(X, Z) - offset
    with beta = H coef (see ProjectionModel._serving), one fused pass over
    blocks of training rows. Projecting the training inputs reproduces the
    coefficients applied to the centered training Gram.

    Cost: one N x N_T x (d + 2) matrix product, in blocks, and two
    elementwise passes over each block (three once gamma (d + 2) |z|^2
    reaches kernels._UNCLAMPED_LIMIT for a query). Working memory beyond
    the m x N_T result and the N_T x (d + 2) lifted queries is O(B), B =
    kernels._BLOCK entries (512 KB), whatever N_T is. A single query runs
    the same steps on vectors: same bits and memory, fewer numpy calls.
    """
    Z = _as_points(Z)
    if Z.shape[1] != model.train_X.shape[1]:
        raise InvalidInput(
            f"feature dimension mismatch: model has {model.train_X.shape[1]}, "
            f"got {Z.shape[1]}"
        )
    beta, offset, lifted_X = model._serving
    out = rbf_cross_product(model.spec_x.gamma, lifted_X, Z, beta)
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


#: model header count -> its least value in a fit's model
_HEADER_COUNTS = {"n_train": 1, "n_features": 1, "m": 1, "n_landmarks": 0}


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
    bad = [k for k, least in _HEADER_COUNTS.items()
           if type(header[k]) is not int or header[k] < least]
    if bad:
        raise InvalidInput(f"{path}: model header counts {bad} must be integers, "
                           "n_landmarks >= 0 and the others >= 1")
    if not isinstance(header["algorithm"], str):
        raise InvalidInput(f"{path}: model header algorithm {header['algorithm']!r} "
                           "is not a string")
    if header["kernel_kind"] != RBF:
        raise InvalidInput(f"{path}: model kernel {header['kernel_kind']!r} is not rbf")
    return header


def load_model(path: str) -> ProjectionModel:
    """Inverse of save_model; validates magic, version and, before any
    array is decoded, that the payload length matches the header. Float
    blocks must be finite and landmark indices distinct in [0, n_train)."""
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
    for name, arr in (("coefficients", coef), ("eigenvalues", eigenvalues),
                      ("row_means", row_means), ("train_X", train_X)):
        if not np.isfinite(arr).all():
            raise InvalidInput(f"{path}: model {name} are not all finite")
    if landmarks is not None:
        try:
            landmarks = _landmark_indices(landmarks, N)
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: {exc}") from None
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
