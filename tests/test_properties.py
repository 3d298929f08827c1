"""Property tests of the dense fit against the N x N oracle pencil, of the
Lanczos solve of the reduced pencil against LAPACK on the assembled pencil,
of the landmark sketch against its blocks as the formulas read, of the
blocked transform against the unfused formula, of the RBF evaluator
(gram, cross_gram, transform) against exp(-gamma ||x - z||^2) from
explicit differences, of the baseline's ridge solve in the input factor
against the dense N x N solve, and of save/load as the identity on
models of every fitter.

Each fit example draws a small dataset (N 8-60, 1-3 classes, 1-4 domains,
sometimes a real-valued output with an RBF output kernel) and checks the
fitted eigenpairs against solved_pencil, which assembles the pencil with
explicit solves and never calls the package's solver. With every point a
landmark, the fast fit must span the dense fit's subspace.
"""
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import numpy.testing as npt
import scipy.linalg as sla
from conftest import (
    build_bundle,
    principal_angles,
    sketch_blocks,
    solved_pencil,
    unfused_transform,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covmin import (
    DataSet,
    KernelSpec,
    ProjectionModel,
    build_sketch,
    cross_gram,
    fit_coir,
    fit_dcm,
    fit_fastdcm,
    kernel_factor,
    linalg,
    load_model,
    ridge_inverse,
    save_model,
    transform,
)
from covmin.dcm import _centered_factor, build_operator_pair
from covmin.evaluate import FITTERS, _ridge_dual
from covmin.fastpath import _side_factor
from covmin.kernels import _BLOCK, center_gram, gram

RBF = KernelSpec("rbf", 0.5)
M = 3
SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    N = draw(st.integers(8, 60))
    classes = draw(st.integers(1, 3))
    domains = draw(st.integers(1, 4))
    continuous = draw(st.booleans())
    epsilon = draw(st.sampled_from([1e-3, 1e-1]))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 3))
    if continuous:
        y = X[:, 0] + 0.3 * rng.standard_normal(N)
        spec_y = KernelSpec("rbf", 1.0)
    else:
        y = rng.integers(0, classes, size=N).astype(float)
        spec_y = None
    d = rng.integers(1, domains + 1, size=N)
    return DataSet(X=X, y=y, d=d), spec_y, epsilon


def _oracle(data, spec_y, epsilon):
    return solved_pencil(*build_bundle(data.X, data.y, data.d, RBF, spec_y), epsilon)


def _top_values(P, Q, k):
    return np.sort(sla.eigvals(P, Q).real)[::-1][:k]


@SETTINGS
@given(problems())
def test_eigenpairs_solve_the_oracle_pencil(problem):
    data, spec_y, epsilon = problem
    model = fit_dcm(data, RBF, epsilon, M, spec_y=spec_y)
    P, Q = _oracle(data, spec_y, epsilon)
    nP, nQ = np.linalg.norm(P, "fro"), np.linalg.norm(Q, "fro")
    for k in range(M):
        v = model.coefficients[:, k]
        lam = model.eigenvalues[k]
        scaled = np.linalg.norm(P @ v - lam * (Q @ v)) / ((nP + abs(lam) * nQ) * np.linalg.norm(v))
        assert scaled <= 1e-8
    npt.assert_allclose(model.eigenvalues, _top_values(P, Q, M), rtol=1e-8, atol=1e-10)


@SETTINGS
@given(problems())
def test_coir_equals_dcm_on_one_domain(problem):
    data, spec_y, epsilon = problem
    one = DataSet(X=data.X, y=data.y, d=np.ones(len(data), dtype=np.int64))
    a = fit_dcm(one, RBF, epsilon, M, spec_y=spec_y)
    b = fit_coir(one, RBF, epsilon, M, spec_y=spec_y)
    npt.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-12)
    npt.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)


def _assume_separated(data, spec_y, epsilon):
    # the retained directions are only defined up to rotation within a
    # (near-)tied eigenvalue cluster
    vals = _top_values(*_oracle(data, spec_y, epsilon), M + 1)
    assume(np.min(-np.diff(vals)) > 1e-6 * vals[0])


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_row_permutation_leaves_transform_unchanged(problem, perm_seed):
    data, spec_y, epsilon = problem
    _assume_separated(data, spec_y, epsilon)
    perm = np.random.default_rng(perm_seed).permutation(len(data))
    shuffled = DataSet(X=data.X[perm], y=data.y[perm], d=data.d[perm])
    a = fit_dcm(data, RBF, epsilon, M, spec_y=spec_y)
    b = fit_dcm(shuffled, RBF, epsilon, M, spec_y=spec_y)
    Q = data.X[:5] + 0.1
    npt.assert_allclose(transform(a, Q), transform(b, Q), atol=1e-8)


@SETTINGS
@given(problems())
def test_full_sampling_fast_fit_spans_the_dense_subspace(problem):
    data, spec_y, epsilon = problem
    _assume_separated(data, spec_y, epsilon)
    dense = fit_dcm(data, RBF, epsilon, M, spec_y=spec_y)
    fast = fit_fastdcm(data, RBF, epsilon, M, len(data), 0, spec_y=spec_y)
    angles = principal_angles(dense.coefficients, fast.coefficients,
                              center_gram(gram(RBF, data.X)))
    # the worst of the 40 examples is 3.0e-8, at the arccos resolution
    assert np.max(angles) <= 1e-6


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(41, 401), st.booleans(), st.booleans(),
       st.sampled_from([1e-3, 1e-1]), st.integers(1, 6))
def test_lanczos_solve_matches_lapack_on_the_assembled_pencil(seed, N, continuous, coir,
                                                              epsilon, m):
    """The reduced pencil of a dcm or coir fit (r = 40-400) with a delta or
    an RBF output factor, solved by Lanczos on its factors and by gen_eig
    on the assembled L and R."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 10))
    if continuous:
        Fy = _centered_factor(KernelSpec("rbf", 1.0), X[:, 0] + 0.3 * rng.standard_normal(N))
    else:
        Fy = _centered_factor(KernelSpec("delta"), rng.integers(0, 3, size=N))
    Fd = None if coir else _centered_factor(KernelSpec("delta"), rng.integers(1, 8, size=N))
    factor = kernel_factor(RBF, X)
    lam2 = factor.values ** 2
    Yy, Yd = build_operator_pair(factor, Fy, Fd, epsilon)
    ridge = N * epsilon
    with mock.patch.object(linalg, "_DENSE_MAX_ORDER", 0):
        got = linalg.lowrank_gen_eig(lam2, Yy, Yd, m, ridge)
    A = Yy.T @ Yy + np.diag(lam2)
    B = (np.diag(lam2) if Yd is None else Yd.T @ Yd + np.diag(lam2)) + ridge * np.eye(len(lam2))
    ref = linalg.gen_eig(A, B, m, ridge=0.0)
    npt.assert_allclose(got.values, ref.values, rtol=1e-10)
    nA, nB = np.linalg.norm(A, "fro"), np.linalg.norm(B, "fro")
    for mu, w in zip(got.values, got.vectors.T):
        assert np.linalg.norm(A @ w - mu * (B @ w)) <= 1e-12 * (nA + abs(mu) * nB)
    npt.assert_allclose(np.linalg.norm(got.vectors, axis=0), 1.0, rtol=1e-14)


@st.composite
def sketch_problems(draw):
    """Landmark draws over 1-4 classes and 1-5 domains. A continuous
    output under the default delta kernel has one level per landmark, and
    every row that is no landmark matches none of them."""
    seed = draw(st.integers(0, 2**32 - 1))
    N = draw(st.integers(2, 60))
    M_ = draw(st.integers(1, N))
    classes = draw(st.integers(1, 4))
    domains = draw(st.integers(1, 5))
    continuous = draw(st.booleans())
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 3))
    y = rng.standard_normal(N) if continuous else rng.integers(0, classes, size=N).astype(float)
    d = rng.integers(1, domains + 1, size=N)
    return DataSet(X=X, y=y, d=d), rng.choice(N, size=M_, replace=False)


@SETTINGS
@given(sketch_problems())
def test_sketch_blocks_equal_the_landmark_column_blocks(problem):
    """The input blocks (Wt_x the inverse of the landmark block jittered by
    1e-10, Cx^T Cx), and F F^T of the delta output and domain factors
    against the jittered Nystrom kernels of their landmark columns."""
    data, idx = problem
    sk = build_sketch(data, RBF, idx)
    oracle = sketch_blocks(data, idx, RBF)
    npt.assert_array_equal(sk.Wt_x, ridge_inverse(oracle["Wx"], 1e-10))
    npt.assert_allclose(sk.Cx.T @ sk.Cx, oracle["Sxx"], rtol=0, atol=1e-12)
    for name, values in (("Ky", data.y), ("Kd", data.d)):
        F = _side_factor(KernelSpec("delta"), values, idx)
        npt.assert_allclose(F @ F.T, oracle[name], rtol=0, atol=1e-12, err_msg=name)


@st.composite
def served_models(draw):
    """A model with arbitrary coefficients (column means not zero) and row
    means, and a query batch. N often sits on or next to a multiple of the
    rows per block, max(1, _BLOCK // N_T)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_test = draw(st.integers(0, 1200))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    step = max(1, _BLOCK // max(n_test, 1))
    edges = [k * step + r for k in (1, 2, 3) for r in (-1, 0, 1)] if step <= 1400 else []
    N = draw(st.one_of(st.integers(1, 300), st.sampled_from(edges))
             if edges else st.integers(1, 300))
    rng = np.random.default_rng(seed)
    model = ProjectionModel(
        algorithm="dcm",
        coefficients=rng.standard_normal((N, m)),
        eigenvalues=np.ones(m),
        train_X=rng.standard_normal((N, d)),
        spec_x=KernelSpec("rbf", draw(st.sampled_from([0.05, 0.5, 5.0]))),
        row_means=rng.random(N),
    )
    return model, rng.standard_normal((n_test, d))


@SETTINGS
@given(served_models())
def test_blocked_transform_equals_the_unfused_formula(served):
    model, Z = served
    ref = unfused_transform(model, Z)
    got = transform(model, Z)
    assert got.shape == (model.m, len(Z))
    npt.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max(initial=0.0)))


@st.composite
def point_sets(draw):
    """Rows X and Z, random or translated far from the origin, and a gamma
    that is not a power of two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 10.0, 100.0, 1000.0]))
    X = rng.standard_normal((draw(st.integers(1, 60)), d)) + offset
    Z = rng.standard_normal((draw(st.integers(0, 40)), d)) + offset
    if draw(st.booleans()) and len(Z):  # some test rows repeat training rows
        Z[: len(Z) // 2] = X[rng.integers(0, len(X), len(Z) // 2)]
    return X, Z, draw(st.sampled_from([0.3, 0.7, 1.7]))


def _direct_rbf(gamma, X, Z):
    return np.exp(-gamma * ((X[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2))


def _evaluator_tol(gamma, X, Z):
    # the product form rounds ||x||^2 + ||z||^2 - 2 x.z, so its error in
    # the squared distance scales with the squared norms
    sq = (X * X).sum(axis=1).max(initial=0.0) + (Z * Z).sum(axis=1).max(initial=0.0)
    return 16 * np.finfo(float).eps * (gamma * sq + 1.0)


@SETTINGS
@given(point_sets())
def test_evaluator_matches_the_direct_kernel(points):
    X, Z, gamma = points
    spec = KernelSpec("rbf", gamma)
    tol = _evaluator_tol(gamma, X, Z)
    npt.assert_allclose(cross_gram(spec, X, Z), _direct_rbf(gamma, X, Z), rtol=0, atol=tol)
    K = gram(spec, X)
    ref = _direct_rbf(gamma, X, X)
    np.fill_diagonal(ref, 1.0)
    npt.assert_allclose(K, ref, rtol=0, atol=_evaluator_tol(gamma, X, X))
    npt.assert_array_equal(K, K.T)
    rng = np.random.default_rng(len(X))
    model = ProjectionModel(
        algorithm="dcm", coefficients=rng.standard_normal((len(X), 2)),
        eigenvalues=np.ones(2), train_X=X, spec_x=spec, row_means=rng.random(len(X)))
    beta = model.coefficients - model.coefficients.mean(axis=0)
    expected = beta.T @ (_direct_rbf(gamma, X, Z) - model.row_means[:, None])
    scale = np.abs(beta).sum(axis=0).max()
    npt.assert_allclose(transform(model, Z), expected, rtol=0,
                        atol=(tol + 1e-14 * (1.0 + np.abs(model.row_means).max())) * scale)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(8, 60), st.booleans(),
       st.sampled_from([0.05, 0.5, 5.0]), st.sampled_from([1e-3, 0.1, 10.0]))
def test_factor_form_ridge_equals_the_dense_solve(seed, N, duplicated, gamma, lam):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 3))
    if duplicated:  # a rank-deficient Gram: many eigenvalues dropped
        X[N // 2:] = X[: N - N // 2]
    y = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0)
    b = y - y.mean()
    spec = KernelSpec("rbf", gamma)
    factor = kernel_factor(spec, X)
    exact = np.linalg.solve(center_gram(gram(spec, X)) + lam * np.eye(N), b)
    # Dropped eigenvalues are at most tau = 1e-12 max(largest, 1), and each
    # dropped direction's share of alpha is off by at most tau / lam. Both
    # solves are backward stable, so each adds a relative error of at most
    # about 3 N u kappa, kappa = (largest + lam) / lam. |alpha| <= |b| / lam.
    largest = factor.values[0]
    tau = 1e-12 * max(largest, 1.0)
    kappa = (largest + lam) / lam
    rounding = 2 * 3 * N * np.finfo(float).eps * kappa
    bound = (tau / lam + rounding) * np.linalg.norm(b) / lam
    assert np.linalg.norm(_ridge_dual(factor, b, lam) - exact) <= bound


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.booleans(), st.floats(-4.0, 4.0))
def test_rbf_output_factor_reproduces_the_centered_gram(seed, N, tied, log10_gamma):
    """The pivoted Cholesky factor, centered, against H K H, for 1-D
    targets (some with tied values) and gamma from 1e-4 to 1e4: from a Gram
    of nearly all ones (rank 1) to one near the identity (rank N)."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(N)
    if tied:
        y = rng.choice(y[: max(1, N // 4)], size=N)
    spec = KernelSpec("rbf", 10.0 ** log10_gamma)
    F = _centered_factor(spec, y)
    assert np.abs(F @ F.T - center_gram(gram(spec, y))).max() <= 1e-10


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@SETTINGS
@given(problems(), st.sampled_from(sorted(FITTERS)), st.data())
def test_save_load_is_the_identity(problem, algorithm, draw):
    """save_model then load_model gives back every array bit for bit, the
    algorithm, the input kernel and the landmarks; the loaded model
    transforms bit-identically, and saving it again writes the same bytes."""
    data, spec_y, epsilon = problem
    params = SimpleNamespace(epsilon=epsilon, m=M, M=draw.draw(st.integers(M, len(data))),
                             seed=draw.draw(st.integers(0, 2**64 - 1)))
    model = FITTERS[algorithm](data, RBF, spec_y, params)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert open(first, "rb").read() == open(second, "rb").read()
    assert (loaded.algorithm, loaded.spec_x) == (model.algorithm, model.spec_x)
    for name in ("coefficients", "eigenvalues", "row_means", "train_X"):
        assert _same_bits(getattr(loaded, name), getattr(model, name)), name
    if model.landmarks is None:
        assert loaded.landmarks is None
    else:
        assert _same_bits(loaded.landmarks, model.landmarks)
    Z = data.X[:5] + 0.25
    assert _same_bits(transform(loaded, Z), transform(model, Z))
