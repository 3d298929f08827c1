"""Property tests of the dense fit against the N x N oracle pencil, of the
landmark sketch against its blocks as the formulas read, of the blocked
transform against the unfused formula, and of the baseline's ridge solve
in the input factor against the dense N x N solve.

Each fit example draws a small dataset (N 8-60, 1-3 classes, 1-4 domains,
sometimes a real-valued output with an RBF output kernel) and checks the
fitted eigenpairs against solved_pencil, which assembles the pencil with
explicit solves and never calls the package's solver. With every point a
landmark, the fast fit must span the dense fit's subspace.
"""
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
    fit_coir,
    fit_dcm,
    fit_fastdcm,
    kernel_factor,
    transform,
)
from covmin.evaluate import _ridge_dual
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
    assert np.max(angles) <= 1e-4


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
    data, idx = problem
    sk = build_sketch(data, RBF, idx)
    oracle = sketch_blocks(data, idx, RBF)
    for name in ("Wx", "Wy", "Wd"):
        npt.assert_array_equal(getattr(sk, name), oracle[name], err_msg=name)
    for name in ("Sxx", "Sxy", "Sxd", "Syy", "Sdd"):
        npt.assert_allclose(getattr(sk, name), oracle[name], rtol=0, atol=1e-12,
                            err_msg=name)


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
