"""Landmark-sketched fitting path with O(M^2 N) cost and no N x N matrices.

All three kernels are approximated through M uniformly sampled landmark
columns (K ~= C W^-1 C^T). The fitting eigenproblem then reduces to an
M x M problem through a reduction matrix Omega; eigenvectors of the full
problem are recovered as C_x V Theta. When every training point is a
landmark the reduction is exact and the dense path is recovered.

Only the input side is held as an N x M block. The output and domain
sides enter the M x M blocks through a factor pair H C = F P^T (Nystrom
factor algebra, Williams & Seeger 2001): a delta kernel's landmark
columns are an N x c one-hot matrix (c levels among the landmark values)
times an M x c selector, so they never become N x M. A fit costs one
N M^2 product (Sxx) plus O(N M (c + T)) for the delta label and domain
sides, and its memory is one N x M block.

The Omega evaluation here is an algebraically identical regrouping of the
direct formula: each product of the form Wt (S Wt + a I)^-1 is collapsed
to (S + a Wj)^-1, where Wj is the jittered landmark block. This avoids
multiplying by the explicit inverse of nearly singular landmark blocks
(delta kernels with duplicate landmark labels produce exactly those) and
agrees with the direct evaluation to rounding on well-conditioned blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .datagen import DataSet
from .dcm import ProjectionModel, _canonical_signs, _check_input_kernel, _one_hot
from .errors import ComplexSpectrum, InvalidInput, RankDeficient
from .kernels import DELTA, KernelSpec, cross_gram
from .linalg import ridge_inverse, sym_eig

_JITTER_SCALE = 1e-10
_RANK_TOL = 1e-10
#: imaginary parts above this (relative) threshold are an error, below it noise
IMAG_TOL = 1e-6


@dataclass
class NystromSketch:
    """Landmark sketch of the three kernels.

    Cx is the column-centered input block H C_x (N x M), with H the
    centering matrix. The output and domain sides are used only through
    a factor pair (F, P) with H C = F P^T and are not kept: for a delta
    kernel F is the centered N x c one-hot matrix over the c levels among
    the landmark values and P its M x c landmark rows; for an RBF kernel
    F = H C and P = I. W blocks are the raw landmark kernels (W = P P^T
    for a delta kernel), Wt_x is the jitter-regularized inverse of Wx,
    and S blocks are cross products of the centered sides, e.g.
    Sxy = (Cx^T F_y) P_y^T and Syy = P_y (F_y^T F_y) P_y^T.
    approx_row_means carries the row means of the raw approximated input
    kernel, used to center test columns at projection time.
    """

    landmark_indices: np.ndarray
    Cx: np.ndarray
    Wx: np.ndarray
    Wy: np.ndarray
    Wd: np.ndarray
    Wt_x: np.ndarray
    jitter_x: float
    jitter_y: float
    jitter_d: float
    Sxx: np.ndarray
    Sxy: np.ndarray
    Sxd: np.ndarray
    Syy: np.ndarray
    Sdd: np.ndarray
    approx_row_means: np.ndarray

    @property
    def Syx(self):
        return self.Sxy.T

    @property
    def Sdx(self):
        return self.Sxd.T


def sample_landmarks(N: int, M: int, seed: int) -> np.ndarray:
    """M distinct indices drawn uniformly without replacement."""
    if not 1 <= M <= N:
        raise InvalidInput(f"M must be in [1, {N}], got {M}")
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


def _side_factor(spec: KernelSpec, values, idx: np.ndarray):
    """(F, P, W) for C = cross_gram(spec, values, values[idx]): the
    factor pair with H C = F P^T and the raw landmark block W = C[idx].

    Delta: F is the centered one-hot matrix over the levels among the
    landmark values, P = its landmark rows and W = P P^T, which is C[idx]
    exactly. RBF: F = H C, P = I.
    """
    values = np.asarray(values)
    if spec.kind == DELTA:
        G = _one_hot(values, np.unique(values[idx]))
        P = G[idx]
        return G - G.mean(axis=0), P, P @ P.T
    C = cross_gram(spec, values, values[idx])
    W = C[idx].copy()
    C -= C.mean(axis=0)
    return C, np.eye(len(idx)), W


def build_sketch(data: DataSet, spec_x: KernelSpec, landmarks,
                 spec_y: KernelSpec | None = None,
                 spec_d: KernelSpec | None = None) -> NystromSketch:
    """Assemble the input block, regularized blocks, and cross products.

    Centering subtracts each C column's mean, which centers the
    approximated kernel exactly: H (C W^-1 C^T) H = (HC) W^-1 (HC)^T.
    landmarks must be distinct integer indices in [0, N).
    """
    spec_y = spec_y or KernelSpec(DELTA)
    spec_d = spec_d or KernelSpec(DELTA)
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
    Fy, Py, Wy = _side_factor(spec_y, data.y, idx)
    Fd, Pd, Wd = _side_factor(spec_d, data.d, idx)
    return NystromSketch(
        landmark_indices=idx,
        Cx=Cx,
        Wx=Wx, Wy=Wy, Wd=Wd,
        Wt_x=Wt_x,
        jitter_x=jx, jitter_y=_jitter(Wy), jitter_d=_jitter(Wd),
        Sxx=Cx.T @ Cx,
        Sxy=(Cx.T @ Fy) @ Py.T, Sxd=(Cx.T @ Fd) @ Pd.T,
        Syy=Py @ (Fy.T @ Fy) @ Py.T, Sdd=Pd @ (Fd.T @ Fd) @ Pd.T,
        approx_row_means=approx_row_means,
    )


def compute_omega(sk: NystromSketch, N: int, epsilon: float,
                  zero_domain: bool = False) -> np.ndarray:
    """M x M reduction matrix of the sketched eigenproblem.

    Direct form (left factor inverted against the right factor), with
    Vx, Vy, Vd the inverses of the jittered landmark blocks W + jitter I:

      lhs = Vx Sxd Vd (Sdd Vd + N eps I)^-1 Sdx Vx Sxx Vx Sxx
            + Vx Sxx Vx Sxx + N eps I
      rhs = Vx Sxy Vy (Syy Vy + N eps I)^-1 Syx Vx Sxx Vx
            + Vx Sxx Vx

    evaluated here with every V (S V + a I)^-1 collapsed to
    (S + a Wj)^-1 and the leading Vx (the sketch's Wt_x) factored out of
    the inversion.
    zero_domain drops the Sxd term (the single-domain degeneration).
    """
    if epsilon <= 0:
        raise InvalidInput("epsilon must be positive")
    M = sk.Sxx.shape[0]
    Ne = N * epsilon
    Wxj = sk.Wx + sk.jitter_x * np.eye(M)
    Wyj = sk.Wy + sk.jitter_y * np.eye(M)
    E = np.linalg.solve(Wxj, sk.Sxx)
    lhs = sk.Sxx @ E + Ne * Wxj
    if not zero_domain:
        Wdj = sk.Wd + sk.jitter_d * np.eye(M)
        Dmid = np.linalg.solve(sk.Sdd + Ne * Wdj, sk.Sdx)
        lhs = sk.Sxd @ Dmid @ E @ E + lhs
    Ymid = np.linalg.solve(sk.Syy + Ne * Wyj, sk.Syx)
    rhs = (sk.Sxy @ Ymid @ E + sk.Sxx) @ sk.Wt_x
    omega = np.linalg.solve(lhs, rhs)
    if not np.all(np.isfinite(omega)):
        raise InvalidInput("omega evaluation produced non-finite entries")
    return omega


def _fast_eig_raw(sk: NystromSketch, omega: np.ndarray, m: int):
    """Eigenvector recovery in landmark space: the m leading eigenvalues
    (complex, by descending real part) and the M x m matrix B = V Theta
    of their directions, so that the coefficients are C_x B. Columns
    beyond the numerical rank of the sketch are dropped; an effective
    rank below m raises RankDeficient."""
    pairs = sym_eig(sk.Sxx)
    lam2 = pairs.values
    keep = lam2 > _RANK_TOL * max(lam2[0], 0.0)
    if keep.sum() < m:
        raise RankDeficient(f"effective rank {int(keep.sum())} is below the requested {m}")
    Vr = pairs.vectors[:, keep]
    lam2 = lam2[keep]
    G = (Vr.T @ omega @ Vr) * lam2[None, :]
    w, Theta = sla.eig(G)
    order = np.argsort(-w.real, kind="stable")[:m]
    return w[order], Vr @ Theta[:, order].real


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
    omega = compute_omega(sk, N, epsilon, zero_domain=zero_domain)
    w, B = _fast_eig_raw(sk, omega, m)
    bad = np.abs(w.imag) > IMAG_TOL * (1.0 + np.abs(w.real))
    if np.any(bad):
        raise ComplexSpectrum(
            "retained eigenvalue has a non-negligible imaginary part; "
            "increase M or epsilon"
        )
    # unit norm under the centered approximated Gram, t^T Wt_x t with
    # t = Cx^T Cx b = Sxx b, evaluated for all m columns in one solve
    T = sk.Sxx @ B
    s = np.abs(np.einsum("ij,ij->j", T, np.linalg.solve(sk.Wx + sk.jitter_x * np.eye(M), T)))
    if np.any(s < 1e-300):
        raise RankDeficient("projection direction has zero norm under the sketch")
    coefs = _canonical_signs(sk.Cx @ (B / np.sqrt(s)))
    return ProjectionModel(
        algorithm=algorithm,
        coefficients=coefs,
        eigenvalues=w.real,
        train_X=data.X.copy(),
        spec_x=spec_x,
        row_means=sk.approx_row_means,
        landmarks=idx,
    )


def fit_fastdcm(data: DataSet, spec_x: KernelSpec, epsilon: float, m: int,
                M: int, seed: int,
                spec_y: KernelSpec | None = None,
                spec_d: KernelSpec | None = None) -> ProjectionModel:
    """Landmark-approximated fit; requires m <= M <= N.

    Cost: one N x M input kernel block and one N M^2 product, plus
    O(N M (c + T)) for delta output and domain kernels, which enter as
    N x c and N x T one-hot factors (an RBF output kernel adds its own
    N x M block and N M^2 product). Memory is one N x M block.

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
    """Landmark-approximated single-domain degeneration (domain blocks
    zeroed inside the reduction)."""
    return _fit_fast(data, spec_x, spec_y, None, epsilon, m, M, seed,
                     "fastcoir", zero_domain=True)
