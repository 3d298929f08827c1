"""Landmark-sketched fitting path with O(M^2 N) cost and no N x N matrices.

All three kernels are approximated through M uniformly sampled landmark
columns C: the centered kernel is H C (W + jI)^-1 C^T H, with W = C[idx]
the landmark block and j a small jitter (Nystrom, Williams & Seeger 2001).
The fit is the dense fit's own pencil on these kernels, solved by the same
code (dcm.build_operator_pair, linalg.lowrank_gen_eig): compute_omega
turns the input sketch into an implicit orthonormal eigenbasis
U = Cx omega of the approximated input Gram, and the output and domain
kernels enter as factors F with F F^T the approximated kernel. The
spectrum is real by construction. When every training point is a
landmark the approximation is exact and the dense solution is recovered.

Only the input side is held as an N x M block. A delta kernel's factor is
an N x c one-hot matrix (c levels among the landmark values), so it never
becomes N x M. A fit costs one N M^2 product (Sxx) plus O(N M (c + T))
for the delta label and domain sides, and its memory is one N x M block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .datagen import DataSet
from .dcm import ProjectionModel, _check_input_kernel, _fit_factor, _one_hot
from .errors import InvalidInput, RankDeficient
from .kernels import DELTA, KernelSpec, cross_gram
from .linalg import ridge_inverse, sym_eig

_JITTER_SCALE = 1e-10
_RANK_TOL = 1e-10


@dataclass
class NystromSketch:
    """Landmark sketch of the three kernels.

    Cx is the column-centered input block H C_x (N x M), with H the
    centering matrix, Wx = C_x[idx] its raw landmark block, Wt_x the
    jitter-regularized inverse of Wx and Sxx = Cx^T Cx. The centered
    approximated input Gram is Cx Wt_x Cx^T. Fy and Fd factor the
    centered approximated output and domain Grams,
    F F^T = H C (W + jI)^-1 C^T H (see _side_factor). approx_row_means
    carries the row means of the raw approximated input kernel, used to
    center test columns at projection time.
    """

    landmark_indices: np.ndarray
    Cx: np.ndarray
    Wx: np.ndarray
    Wt_x: np.ndarray
    jitter_x: float
    Sxx: np.ndarray
    Fy: np.ndarray
    Fd: np.ndarray
    approx_row_means: np.ndarray


@dataclass
class LandmarkFactor:
    """Eigenbasis of a sketch's centered approximated input Gram,
    Cx Wt_x Cx^T = U diag(values) U^T with U = Cx omega orthonormal and
    never formed (compute_omega). It serves dcm.build_operator_pair and
    the fit tail like a dense dcm.KernelFactor.
    """

    spec: KernelSpec
    Cx: np.ndarray
    omega: np.ndarray
    values: np.ndarray
    row_means: np.ndarray

    def project(self, F: np.ndarray) -> np.ndarray:
        """U^T F = omega^T (Cx^T F)."""
        return self.omega.T @ (self.Cx.T @ F)

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """v = U diag(values)^-1/2 w, which has v^T (Cx Wt_x Cx^T) v = w^T w."""
        return self.Cx @ (self.omega @ (w / np.sqrt(self.values)[:, None]))


def sample_landmarks(N: int, M: int, seed: int) -> np.ndarray:
    """M distinct indices drawn uniformly without replacement; seed is an
    integer in [0, 2**64)."""
    if not 1 <= M <= N:
        raise InvalidInput(f"M must be in [1, {N}], got {M}")
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= int(seed) < 2**64):
        raise InvalidInput(f"seed must be an integer in [0, 2**64), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return rng.permutation(N)[:M]


def _jitter(W: np.ndarray) -> float:
    M = W.shape[0]
    return _JITTER_SCALE * float(np.trace(W)) / M


def _landmark_indices(landmarks, N: int) -> np.ndarray:
    idx = np.asarray(landmarks)
    if idx.ndim != 1 or len(idx) == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise InvalidInput("landmarks must be a non-empty 1-D array of integer indices")
    if idx.min() < 0 or idx.max() >= N:
        raise InvalidInput(f"landmark indices must lie in [0, {N})")
    if len(np.unique(idx)) != len(idx):
        raise InvalidInput("landmark indices must be distinct")
    return idx.astype(np.int64)


def _side_factor(spec: KernelSpec, values, idx: np.ndarray) -> np.ndarray:
    """F with F F^T = H C (W + jI)^-1 C^T H, the jittered Nystrom kernel of
    C = cross_gram(spec, values, values[idx]), W = C[idx], j = _jitter(W).

    Delta: C = G P^T for the one-hot matrix G over the levels among the
    landmark values and P = G[idx], so W = P P^T and, with n_l landmarks
    at level l, P^T (W + jI)^-1 P = diag(n_l / (n_l + j)): F is the
    centered G with column l scaled by sqrt(n_l / (n_l + j)). RBF:
    F = (H C) L^-T for the Cholesky factor L L^T = W + jI.
    """
    values = np.asarray(values)
    if spec.kind == DELTA:
        G = _one_hot(values, np.unique(values[idx]))
        P = G[idx]
        n = P.sum(axis=0)
        return (G - G.mean(axis=0)) * np.sqrt(n / (n + _jitter(P @ P.T)))
    C = cross_gram(spec, values, values[idx])
    W = C[idx]
    L = np.linalg.cholesky(W + _jitter(W) * np.eye(len(idx)))
    C -= C.mean(axis=0)
    return sla.solve_triangular(L, C.T, lower=True).T


def build_sketch(data: DataSet, spec_x: KernelSpec, landmarks,
                 spec_y: KernelSpec | None = None,
                 spec_d: KernelSpec | None = None) -> NystromSketch:
    """Assemble the input block, its regularized inverse and Gram, and the
    output and domain factors.

    Centering subtracts each C column's mean, which centers the
    approximated kernel exactly: H (C W^-1 C^T) H = (HC) W^-1 (HC)^T.
    landmarks must be distinct integer indices in [0, N).
    """
    N = len(data)
    idx = _landmark_indices(landmarks, N)
    Cx = cross_gram(spec_x, data.X, data.X[idx])
    Wx = Cx[idx].copy()
    jx = _jitter(Wx)
    Wt_x = ridge_inverse(Wx, jx)
    # row means of the raw approximated input kernel, O(NM)
    ones_proj = Cx.T @ np.full(N, 1.0 / N)
    approx_row_means = Cx @ (Wt_x @ ones_proj)
    Cx -= Cx.mean(axis=0)
    return NystromSketch(
        landmark_indices=idx,
        Cx=Cx, Wx=Wx, Wt_x=Wt_x, jitter_x=jx, Sxx=Cx.T @ Cx,
        Fy=_side_factor(spec_y or KernelSpec(DELTA), data.y, idx),
        Fd=_side_factor(spec_d or KernelSpec(DELTA), data.d, idx),
        approx_row_means=approx_row_means,
    )


def compute_omega(sk: NystromSketch, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, omega): the eigendecomposition
    Cx Wt_x Cx^T = U diag(values) U^T of the sketch's centered
    approximated input Gram, values descending, with U = Cx omega
    orthonormal (N x r) and omega M x r.

    With Sxx = V diag(s) V^T over the s above _RANK_TOL * max(s), U0 =
    Cx V s^-1/2 is orthonormal and Cx = U0 s^1/2 V^T, so the Gram is
    U0 G U0^T with G = s^1/2 V^T Wt_x V s^1/2 = Wg diag(values) Wg^T,
    and omega = V s^-1/2 Wg. A rank r below m raises RankDeficient.
    """
    pairs = sym_eig(sk.Sxx)
    keep = pairs.values > _RANK_TOL * max(pairs.values[0], 0.0)
    if keep.sum() < m:
        raise RankDeficient(f"effective rank {int(keep.sum())} is below the requested {m}")
    root = np.sqrt(pairs.values[keep])
    B = pairs.vectors[:, keep] * root
    G = sym_eig(B.T @ sk.Wt_x @ B)
    return G.values, (pairs.vectors[:, keep] / root) @ G.vectors


def _fit_fast(data: DataSet, spec_x, spec_y, spec_d, epsilon, m, M, seed,
              algorithm, zero_domain) -> ProjectionModel:
    _check_input_kernel(spec_x)
    N = len(data)
    if not 1 <= m <= M:
        raise InvalidInput(f"m must be in [1, M={M}], got {m}")
    if M > N:
        raise InvalidInput(f"M={M} exceeds the sample count {N}")
    idx = sample_landmarks(N, M, seed)
    sk = build_sketch(data, spec_x, idx, spec_y=spec_y, spec_d=spec_d)
    values, omega = compute_omega(sk, m)
    factor = LandmarkFactor(spec_x, sk.Cx, omega, values, sk.approx_row_means)
    return _fit_factor(algorithm, data.X, factor, sk.Fy, None if zero_domain else sk.Fd,
                       epsilon, m, landmarks=idx)


def fit_fastdcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
                M: int, seed: int,
                spec_y: KernelSpec | None = None,
                spec_d: KernelSpec | None = None) -> ProjectionModel:
    """Landmark-approximated fit; requires m <= M <= N.

    The dense fit's pencil on the landmark-approximated kernels, solved by
    the dense fit's reduction and eigensolver (see the module docstring);
    each direction has unit norm under the approximated input Gram.

    Cost: one N x M input kernel block, one N M^2 product and two M x M
    symmetric eigendecompositions, plus O(N M (c + T)) for delta output
    and domain kernels, which enter as N x c and N x T one-hot factors
    (an RBF output kernel adds its own N x M block and N M^2 product).
    Memory is one N x M block.

    The returned model projects new data exactly like the dense fit: the
    full training-to-test cross kernel is applied to the coefficients,
    with centering statistics taken from the approximated training
    kernel (exact when M = N).
    """
    return _fit_fast(data, spec_x, spec_y, spec_d, epsilon, m, M, seed,
                     "fastdcm", zero_domain=False)


def fit_fastcoir(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
                 M: int, seed: int,
                 spec_y: KernelSpec | None = None) -> ProjectionModel:
    """Landmark-approximated single-domain degeneration (the domain term
    of the pencil dropped, as in dcm.fit_coir)."""
    return _fit_fast(data, spec_x, spec_y, None, epsilon, m, M, seed,
                     "fastcoir", zero_domain=True)
