"""Landmark-sketched fitting path with O(M^2 N) cost and no N x N matrices.

All three kernels are approximated through M uniformly sampled landmark
columns C: the centered kernel is H C (W + jI)^-1 C^T H, with W = C[idx]
the landmark block and j = _JITTER (Nystrom, Williams & Seeger 2001).
The fit is the dense fit's pencil on these kernels, solved by the same
tail (dcm._fit_factor) on the landmark input factor that build_sketch
returns, a NystromSketch (the factor protocol is in the dcm docstring).
Its eigenbasis U = Cx omega of the approximated input Gram is implicit
(compute_omega), and the spectrum is real by construction.
When every training point is a landmark the approximation is exact and
the dense solution is recovered.

Only the input side is held as an N x M block. A delta kernel's factor is
an N x c one-hot matrix (c levels among the landmark values), so it never
becomes N x M. A fit costs one N M^2 product (Cx^T Cx) plus O(N M (c + T))
for the delta label and domain sides, and its memory is one N x M block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .datagen import DataSet
from .dcm import ProjectionModel, _check_input_kernel, _fit_factor, _landmark_indices
from .errors import InvalidInput
from .kernels import DELTA, KernelSpec, cross_gram
from .linalg import ridge_inverse, sym_eig

#: added to the diagonal of every landmark block W; each kernel here (RBF
#: or delta) has a unit diagonal, so this is 1e-10 trace(W) / M
_JITTER = 1e-10
_RANK_TOL = 1e-10


@dataclass
class NystromSketch:
    """Landmark input factor (dcm module docstring): the eigenbasis of the
    centered approximated input Gram, Cx Wt_x Cx^T = U diag(values) U^T
    with U = Cx omega orthonormal and never formed (compute_omega).

    Cx is the column-centered input block H C_x (N x M), with H the
    centering matrix, and Wt_x = (C_x[idx] + _JITTER I)^-1 the regularized
    inverse of its raw landmark block. row_means are the row means of the
    raw approximated input kernel, used to center test columns at
    projection time. landmarks are the rows behind the columns of Cx.
    """

    spec: KernelSpec
    Cx: np.ndarray
    Wt_x: np.ndarray
    values: np.ndarray
    omega: np.ndarray
    row_means: np.ndarray
    landmarks: np.ndarray

    def project(self, F: np.ndarray) -> np.ndarray:
        """U^T F = omega^T (Cx^T F)."""
        return self.omega.T @ (self.Cx.T @ F)

    def coefficients(self, w: np.ndarray) -> np.ndarray:
        """v = U diag(values)^-1/2 w, which has v^T (Cx Wt_x Cx^T) v = w^T w."""
        return self.Cx @ (self.omega @ (w / np.sqrt(self.values)[:, None]))

    def side(self, spec: KernelSpec, values) -> np.ndarray:
        """The Nystrom factor of values on this sketch's landmarks."""
        return _side_factor(spec, values, self.landmarks)


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


def _side_factor(spec: KernelSpec, values, idx: np.ndarray) -> np.ndarray:
    """F with F F^T = H C (W + jI)^-1 C^T H, the jittered Nystrom kernel of
    C = cross_gram(spec, values, values[idx]), W = C[idx], j = _JITTER.

    Delta: C = G P^T for the one-hot matrix G (the delta kernel between
    values and the levels among the landmark values) and P = G[idx], so
    W = P P^T and, with n_l landmarks at level l, P^T (W + jI)^-1 P =
    diag(n_l / (n_l + j)): F is the centered G with column l scaled by
    sqrt(n_l / (n_l + j)). RBF: F = (H C) L^-T for the Cholesky factor
    L L^T = W + jI.
    """
    values = np.asarray(values)
    if spec.kind == DELTA:
        G = cross_gram(spec, values, np.unique(values[idx]))
        n = G[idx].sum(axis=0)
        return (G - G.mean(axis=0)) * np.sqrt(n / (n + _JITTER))
    C = cross_gram(spec, values, values[idx])
    L = np.linalg.cholesky(C[idx] + _JITTER * np.eye(len(idx)))
    C -= C.mean(axis=0)
    return sla.solve_triangular(L, C.T, lower=True).T


def build_sketch(data: DataSet, spec_x: KernelSpec, landmarks) -> NystromSketch:
    """The landmark input factor of data.X under the rbf spec_x: the input
    block, its regularized landmark inverse and their eigenbasis.

    Centering subtracts each C column's mean, which centers the
    approximated kernel exactly: H (C W^-1 C^T) H = (HC) W^-1 (HC)^T.
    landmarks must be distinct integer indices in [0, N).
    """
    _check_input_kernel(spec_x)
    N = len(data)
    idx = _landmark_indices(landmarks, N)
    Cx = cross_gram(spec_x, data.X, data.X[idx])
    Wt_x = ridge_inverse(Cx[idx], _JITTER)
    # row means of the raw approximated input kernel, O(NM)
    row_means = Cx @ (Wt_x @ (Cx.T @ np.full(N, 1.0 / N)))
    Cx -= Cx.mean(axis=0)
    values, omega = compute_omega(Cx.T @ Cx, Wt_x)
    return NystromSketch(spec=spec_x, Cx=Cx, Wt_x=Wt_x, values=values, omega=omega,
                         row_means=row_means, landmarks=idx)


def compute_omega(Sxx: np.ndarray, Wt_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, omega): the eigendecomposition
    Cx Wt_x Cx^T = U diag(values) U^T of a sketch's centered approximated
    input Gram, given Sxx = Cx^T Cx, values descending, with U = Cx omega
    orthonormal (N x r) and omega M x r.

    With Sxx = V diag(s) V^T over the s above _RANK_TOL * max(s, 1), U0 =
    Cx V s^-1/2 is orthonormal and Cx = U0 s^1/2 V^T, so the Gram is
    U0 G U0^T with G = s^1/2 V^T Wt_x V s^1/2 = Wg diag(values) Wg^T,
    and omega = V s^-1/2 Wg. r may be 0; the fit checks it against m.
    G is symmetrized before sym_eig: when two landmarks are the same row,
    Wt_x has entries near 1 / _JITTER, and the rounding asymmetry of the
    product exceeds sym_eig's tolerance.
    """
    pairs = sym_eig(Sxx, tol=_RANK_TOL)
    root = np.sqrt(pairs.values)
    B = pairs.vectors * root
    G = B.T @ Wt_x @ B
    G = sym_eig(0.5 * (G + G.T))
    return G.values, (pairs.vectors / root) @ G.vectors


def _fit_fast(algorithm, data: DataSet, spec_x, spec_y, spec_d, epsilon, m, M,
              seed) -> ProjectionModel:
    if not 1 <= m <= M:
        raise InvalidInput(f"m must be in [1, M={M}], got {m}")
    sketch = build_sketch(data, spec_x, sample_landmarks(len(data), M, seed))
    return _fit_factor(algorithm, data, sketch, spec_y, spec_d, epsilon, m)


def fit_fastdcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
                M: int, seed: int,
                spec_y: KernelSpec | None = None) -> ProjectionModel:
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
    return _fit_fast("fastdcm", data, spec_x, spec_y, KernelSpec(DELTA),
                     epsilon, m, M, seed)


def fit_fastcoir(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
                 M: int, seed: int,
                 spec_y: KernelSpec | None = None) -> ProjectionModel:
    """Landmark-approximated single-domain degeneration (the domain term
    of the pencil dropped, as in dcm.fit_coir)."""
    return _fit_fast("fastcoir", data, spec_x, spec_y, None, epsilon, m, M, seed)
