import logging
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from conftest import (
    build_bundle,
    principal_angles,
    random_dataset,
    solved_pencil,
    unfused_transform,
)
from scipy.sparse.linalg import ArpackNoConvergence

import covmin
from covmin import (
    DataSet,
    InvalidInput,
    KernelFactor,
    KernelSpec,
    ProjectionModel,
    SynthConfig,
    build_operator_pair,
    build_sketch,
    cross_gram,
    fit_coir,
    fit_dcm,
    fit_fastcoir,
    fit_fastdcm,
    fit_kpca,
    kernel_factor,
    linalg,
    load_model,
    save_model,
    synth_generate,
    transform,
)
from covmin.dcm import _centered_factor
from covmin.errors import RankDeficient
from covmin.kernels import _BLOCK, _MAX_SQ_NORM, center_gram, gram
from covmin.linalg import factored_sym_eig, sym_eig


def _random_problem(rng, N):
    """Centered Kx with its positive eigenbasis as a KernelFactor, plus
    rank-2 centered output and domain factors (Ky = Fy Fy^T, Kd = Fd Fd^T)."""
    def centered(k):
        A = rng.standard_normal((N, k))
        return A - A.mean(axis=0)

    Fx = centered(N)
    Kx = center_gram(Fx @ Fx.T)
    values, basis = factored_sym_eig(Kx.copy(), tol=1e-12)
    factor = KernelFactor(spec=None, X=None, basis=basis, values=values,
                          row_means=np.zeros(N))
    return Kx, factor, centered(2), centered(2)


def test_operator_pair_transcription_oracle():
    """L = Yy^T Yy + lam^2 and R + N eps I = Yd^T Yd + lam^2 + N eps I are
    the N x N pencil seen through v = U lam^-1/2 w:
    lam^1/2 U^T (P, Q) U lam^-1/2."""
    rng = np.random.default_rng(0)
    for N, eps in ((3, 0.1), (7, 1e-3), (12, 1e-2)):
        Kx, factor, Fy, Fd = _random_problem(rng, N)
        lam = factor.values
        U = factor.basis.expand(np.eye(len(lam)))
        Yy, Yd = build_operator_pair(factor, Fy, Fd, eps)
        assert Yy.shape == (Fy.shape[1], len(lam)) and Yd.shape == (Fd.shape[1], len(lam))
        L = Yy.T @ Yy + np.diag(lam ** 2)
        R = Yd.T @ Yd + np.diag(lam ** 2)
        P, Q = solved_pencil(Kx, Fy @ Fy.T, Fd @ Fd.T, eps)
        L_ref = np.sqrt(lam)[:, None] * (U.T @ P @ U) / np.sqrt(lam)[None, :]
        R_ref = np.sqrt(lam)[:, None] * (U.T @ Q @ U) / np.sqrt(lam)[None, :]
        scale = np.abs(L_ref).max() + np.abs(R_ref).max()
        npt.assert_allclose(L, L_ref, atol=1e-12 * scale)
        npt.assert_allclose(R + N * eps * np.eye(len(lam)), R_ref, atol=1e-12 * scale)


def test_operator_pair_degenerations():
    rng = np.random.default_rng(1)
    _, factor, Fy, _ = _random_problem(rng, 5)
    zero = np.zeros((5, 1))

    Yy, Yd = build_operator_pair(factor, zero, zero, 0.1)
    npt.assert_array_equal(Yy, np.zeros((1, len(factor.values))))
    npt.assert_array_equal(Yd, np.zeros((1, len(factor.values))))

    _, Yd = build_operator_pair(factor, Fy, None, 0.1)
    assert Yd is None


def test_operator_pair_validation():
    rng = np.random.default_rng(2)
    _, factor, Fy, Fd = _random_problem(rng, 4)
    with pytest.raises(InvalidInput, match="epsilon"):
        build_operator_pair(factor, Fy, Fd, 0.0)
    with pytest.raises(InvalidInput, match="domain factor"):
        build_operator_pair(factor, Fy, Fd[:3], 0.1)


@pytest.mark.parametrize("spec, values", [
    (KernelSpec("delta"), np.array([1.0, -1.0, -1.0, 1.0, 1.0, 2.0])),
    (KernelSpec("delta"), np.array(["b", "a", "b", "c"])),
    (KernelSpec("rbf", 0.7), np.linspace(-2.0, 2.0, 9)),
    # repeated values: a rank-deficient Gram, one pivot per distinct value
    (KernelSpec("rbf", 0.7), np.repeat([-1.0, 0.5, 2.0], [4, 1, 3])),
    # a constant target: K = 1 1^T, whose centered Gram is 0
    (KernelSpec("rbf", 0.7), np.full(7, 3.0)),
    # off-diagonal entries below 1e-43, so a full-rank Gram
    (KernelSpec("rbf", 100.0), np.linspace(0.0, 10.0, 11)),
])
def test_centered_factor_reproduces_centered_gram(spec, values):
    F = _centered_factor(spec, values)
    K = center_gram(gram(spec, values))
    npt.assert_allclose(F @ F.T, K, atol=1e-12)
    if spec.kind == "delta":
        assert F.shape == (len(values), len(np.unique(values)))
    else:  # pivoted Cholesky: one column per pivot, at most one per distinct value
        assert F.shape[1] <= len(np.unique(values))
        npt.assert_allclose(F.sum(axis=0), 0.0, atol=1e-12)


def test_rbf_output_factor_needs_no_eigendecomposition(small_data, rbf, monkeypatch):
    """An RBF output enters as a pivoted Cholesky factor, so a dense fit
    eigendecomposes the input Gram only."""
    calls = []

    def counted(S, tol=None):
        calls.append(S.shape)
        return factored_sym_eig(S, tol)

    monkeypatch.setattr("covmin.dcm.factored_sym_eig", counted)
    y = small_data.X[:, 0] + 0.1 * small_data.d
    data = DataSet(X=small_data.X, y=y, d=small_data.d)
    fit_dcm(data, rbf, 1e-3, 3, spec_y=KernelSpec("rbf", 1.0))
    N = len(small_data.X)
    assert calls == [(N, N)]


def test_fit_dcm_invariants(small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 4)
    Kx = center_gram(gram(rbf, small_data.X))
    # unit norm under the centered input Gram
    for col in range(4):
        b = model.coefficients[:, col]
        assert abs(b @ Kx @ b - 1.0) < 1e-8
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert model.m == 4
    assert model.algorithm == "dcm"


def test_fit_kpca_coefficients_are_orthonormal_under_the_gram(small_data, rbf):
    model = fit_kpca(small_data, rbf, 4)
    Kx = center_gram(gram(rbf, small_data.X))
    C = model.coefficients
    npt.assert_allclose(C.T @ Kx @ C, np.eye(4), atol=1e-10)


def test_fit_dcm_solved_pencil_residuals(small_data, rbf):
    eps = 1e-3
    model = fit_dcm(small_data, rbf, eps, 3)
    A, B = solved_pencil(*build_bundle(small_data.X, small_data.y, small_data.d, rbf), eps)
    for k in range(3):
        v = model.coefficients[:, k]
        lam = model.eigenvalues[k]
        r = np.linalg.norm(A @ v - lam * B @ v)
        bound = 1e-8 * (np.linalg.norm(A, "fro") + abs(lam) * np.linalg.norm(B, "fro"))
        assert r <= bound


def test_sorted_eigenvalues_two_domain_toy(rbf):
    data = synth_generate(SynthConfig(T=2, mean_count=30, seed=6))
    model = fit_dcm(data, rbf, 1e-3, 2)
    assert model.eigenvalues[0] >= model.eigenvalues[1]


def test_single_domain_equals_coir(single_domain_data, rbf):
    dcm_model = fit_dcm(single_domain_data, rbf, 1e-3, 3)
    coir_model = fit_coir(single_domain_data, rbf, 1e-3, 3)
    Kx = center_gram(gram(rbf, single_domain_data.X))
    angles = principal_angles(dcm_model.coefficients, coir_model.coefficients, Kx)
    assert np.max(angles) <= 1e-6
    npt.assert_allclose(dcm_model.coefficients, coir_model.coefficients, atol=1e-10)


def test_coir_constant_y_eigenvalues_one(single_domain_data, rbf):
    # zeroed output Gram: A = B = Kx, so every retained eigenvalue is 1
    flat = DataSet(X=single_domain_data.X,
                   y=np.ones(len(single_domain_data)),
                   d=single_domain_data.d)
    model = fit_coir(flat, rbf, 1e-10, 3)
    npt.assert_allclose(model.eigenvalues, np.ones(3), atol=1e-8)


def test_coir_regression_toy():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((150, 2))
    y = X[:, 0].copy()
    data = DataSet(X=X, y=y, d=np.ones(150, dtype=np.int64))
    # wide kernel so the leading projection stays close to linear in x
    spec = KernelSpec("rbf", 0.1)
    from covmin.kernels import median_gamma

    model = fit_coir(data, spec, 1e-3, 1, spec_y=KernelSpec("rbf", median_gamma(y)))
    proj = transform(model, X)[0]
    corr = np.corrcoef(proj, X[:, 0])[0, 1]
    assert abs(corr) >= 0.9


def test_kpca_line_and_duplication():
    t = np.linspace(-1.0, 1.0, 40)
    X = np.column_stack([t, 2.0 * t])
    data = DataSet(X=X, y=np.ones(40), d=np.ones(40, dtype=np.int64))
    spec = KernelSpec("rbf", 1e-3)  # nearly linear kernel at this width
    model = fit_kpca(data, spec, 3)

    all_vals = sym_eig(center_gram(gram(spec, X))).values
    mass = all_vals[all_vals > 0]
    assert model.eigenvalues[0] / mass.sum() >= 0.95

    doubled = DataSet(X=np.vstack([X, X]), y=np.ones(80), d=np.ones(80, dtype=np.int64))
    m1 = fit_kpca(data, spec, 2)
    m2 = fit_kpca(doubled, spec, 2)
    Q = np.linspace(-1.5, 1.5, 9)[:, None] * np.array([[1.0, 2.0]])
    P1 = transform(m1, Q)
    P2 = transform(m2, Q)
    angles = principal_angles(P1.T, P2.T, np.eye(9))
    assert np.max(angles) <= 1e-6


def test_kpca_rank_limits(rbf):
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    data = DataSet(X=X, y=np.ones(2), d=np.ones(2, dtype=np.int64))
    model = fit_kpca(data, rbf, 1)
    assert model.eigenvalues[0] > 0
    with pytest.raises(RankDeficient):
        fit_kpca(data, rbf, 2)
    # the dense supervised fit needs as many positive directions as well
    data = DataSet(X=X, y=np.array([1.0, -1.0]), d=np.array([1, 2]))
    assert fit_dcm(data, rbf, 1e-3, 1).m == 1
    with pytest.raises(RankDeficient):
        fit_dcm(data, rbf, 1e-3, 2)


def test_fit_m_bounds(small_data, rbf):
    with pytest.raises(InvalidInput):
        fit_dcm(small_data, rbf, 1e-3, 0)
    with pytest.raises(InvalidInput):
        fit_kpca(small_data, rbf, len(small_data) + 1)


def test_full_retention_spans_gram_rank(rbf):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((8, 2))
    data = DataSet(X=X, y=np.where(rng.standard_normal(8) > 0, 1.0, -1.0),
                   d=np.array([1, 1, 1, 1, 2, 2, 2, 2]))
    model = fit_dcm(data, rbf, 1e-3, 7)  # centered Gram rank is N-1
    assert np.linalg.matrix_rank(model.coefficients) == 7


def test_transform_train_equals_projected_gram(small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 3)
    Kx = center_gram(gram(rbf, small_data.X))
    npt.assert_allclose(transform(model, small_data.X),
                        model.coefficients.T @ Kx, atol=1e-10)


def test_transform_far_point_limit(small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 3)
    far = np.full((1, small_data.X.shape[1]), 1e6)
    out = transform(model, far)
    mu = model.row_means
    expect = -model.coefficients.T @ (mu - mu.mean())
    npt.assert_allclose(out[:, 0], expect, atol=1e-12)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("kind, N, n_test", [("dense", 600, 1000), ("fast", 3000, 300)])
def test_transform_matches_unfused_reference(kind, N, n_test, rbf):
    rng = np.random.default_rng(N)
    data = random_dataset(rng, N)
    if kind == "dense":
        model = fit_dcm(data, rbf, 1e-3, 3)
    else:
        model = fit_fastdcm(data, rbf, 1e-3, 3, M=50, seed=0)
    # at least three blocks of training rows, the last one ragged
    step = _BLOCK // n_test
    assert N // step >= 2 and N % step != 0
    Z = rng.standard_normal((n_test, data.X.shape[1]))
    ref = unfused_transform(model, Z)
    npt.assert_allclose(transform(model, Z), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    npt.assert_allclose(transform(model, Z[:1]), ref[:, :1], rtol=0,
                        atol=1e-12 * np.abs(ref).max())
    assert transform(model, Z[:0]).shape == (model.m, 0)


def test_transform_working_memory_is_one_block():
    # beyond its m x N_T result and the N_T x (d + 2) lifted queries,
    # transform holds one block of _BLOCK kernel entries, where the
    # N x N_T cross-Gram would take 160 MB for 1000 queries against 20000
    # rows, and a single query against 100000 rows 800 KB
    rng = np.random.default_rng(0)
    d, m = 10, 5
    for N, n_test in ((20000, 1000), (100000, 1)):
        model = ProjectionModel("dcm", rng.standard_normal((N, m)), np.ones(m),
                                rng.standard_normal((N, d)), KernelSpec("rbf", 0.5),
                                rng.random(N))
        Z = rng.standard_normal((n_test, d))
        transform(model, Z[:1])  # derives the serving constants
        tracemalloc.start()
        try:
            out = transform(model, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes - 8 * n_test * (d + 2) <= 1.1 * 8 * _BLOCK
    # the single query ran over two blocks of training rows
    ref = unfused_transform(model, Z)
    npt.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_transform_sees_edits_made_before_its_first_call(small_data, rbf):
    # the serving constants are derived on first use, so a model edited
    # between construction and serving is served as edited
    model = fit_dcm(small_data, rbf, 1e-3, 2)
    model.coefficients[0, 0] += 1.0
    Z = small_data.X[:4]
    npt.assert_allclose(transform(model, Z), unfused_transform(model, Z), atol=1e-12)


@pytest.mark.parametrize("fit", [
    lambda data, spec: fit_dcm(data, spec, 1e-3, 2),
    lambda data, spec: fit_coir(data, spec, 1e-3, 2),
    lambda data, spec: fit_kpca(data, spec, 2),
    lambda data, spec: fit_fastdcm(data, spec, 1e-3, 2, M=20, seed=0),
    lambda data, spec: fit_fastcoir(data, spec, 1e-3, 2, M=20, seed=0),
    lambda data, spec: build_sketch(data, spec, [0, 1, 2]),
], ids=["dcm", "coir", "kpca", "fastdcm", "fastcoir", "build_sketch"])
def test_fits_require_an_rbf_input_kernel(fit, small_data):
    with pytest.raises(InvalidInput, match="must be rbf"):
        fit(small_data, KernelSpec("delta"))


DENSE_FITS = {
    "dcm": lambda data, spec, **kw: fit_dcm(data, spec, 1e-3, 3, **kw),
    "coir": lambda data, spec, **kw: fit_coir(data, spec, 1e-3, 3, **kw),
    "kpca": lambda data, spec, **kw: fit_kpca(data, spec, 3, **kw),
}


@pytest.mark.parametrize("alg", DENSE_FITS)
def test_shared_factor_leaves_the_model_file_unchanged(alg, tmp_path, small_data, rbf):
    fit = DENSE_FITS[alg]
    own, shared = tmp_path / "own.bin", tmp_path / "shared.bin"
    save_model(fit(small_data, rbf), str(own))
    save_model(fit(small_data, rbf, factor=kernel_factor(rbf, small_data.X)), str(shared))
    assert own.read_bytes() == shared.read_bytes()


@pytest.mark.parametrize("alg", DENSE_FITS)
def test_factor_of_other_rows_or_kernel_is_rejected(alg, small_data, rbf):
    fit = DENSE_FITS[alg]
    X = small_data.X
    moved = X.copy()
    moved[0] += 1.0
    perm = np.random.default_rng(0).permutation(len(X))
    for factor in (kernel_factor(rbf, X[1:]), kernel_factor(rbf, moved),
                   kernel_factor(rbf, X[perm]), kernel_factor(KernelSpec("rbf", 0.25), X)):
        with pytest.raises(InvalidInput, match="factor was built from other rows"):
            fit(small_data, rbf, factor=factor)


def test_kernel_factor_rejects_no_rows(rbf):
    with pytest.raises(InvalidInput, match="at least one row"):
        kernel_factor(rbf, np.zeros((0, 3)))


def test_kernel_factor_peak_memory(rbf):
    """kernel_factor holds at most three N x N matrices at once. Centering
    holds two, the raw Gram and the centered one; the eigensolve holds the
    centered Gram's buffer, which the reduction overwrites with its
    Householder reflectors, the tridiagonal eigenvectors Z and the dstevd
    workspace."""
    import tracemalloc

    N = 1600
    X = np.random.default_rng(0).standard_normal((N, 5))
    tracemalloc.start()
    try:
        kernel_factor(rbf, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * 8 * N * N


def test_kernel_factor_peak_rss():
    """The resident-memory peak of kernel_factor at N=1600, measured as the
    growth of ru_maxrss in a fresh process (which also counts LAPACK's own
    workspace), stays under four N x N arrays."""
    N = 1600
    code = f"""
import resource
import numpy as np
from covmin import KernelSpec, kernel_factor
spec = KernelSpec("rbf", 0.5)
kernel_factor(spec, np.random.default_rng(1).standard_normal((50, 5)))
X = np.random.default_rng(0).standard_normal(({N}, 5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
kernel_factor(spec, X)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    src = os.path.dirname(os.path.dirname(covmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    growth = 1024 * int(out.stdout)  # ru_maxrss is in KiB on Linux
    assert growth <= 4 * 8 * N * N


def _lanczos_sized_data(rbf):
    """400 rows: the reduced pencil is too large for the dense solve."""
    data = random_dataset(np.random.default_rng(5), 400, n=10, domains=5)
    assert len(kernel_factor(rbf, data.X).values) > linalg._DENSE_MAX_ORDER
    return data


def test_lanczos_fits_repeat_byte_for_byte(tmp_path, rbf):
    data = _lanczos_sized_data(rbf)
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_model(fit_dcm(data, rbf, 1e-3, 5), str(first))
    save_model(fit_dcm(data, rbf, 1e-3, 5), str(second))
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fit", [fit_dcm, fit_coir])
def test_arpack_failure_falls_back_to_the_dense_solve(fit, monkeypatch, caplog, rbf):
    data = _lanczos_sized_data(rbf)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_DENSE_MAX_ORDER", len(data))
        dense = fit(data, rbf, 1e-3, 5)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                  np.zeros((len(data), 0)))

    monkeypatch.setattr(linalg, "eigsh", no_convergence)
    with caplog.at_level(logging.WARNING, logger="covmin.linalg"):
        fallback = fit(data, rbf, 1e-3, 5)
    assert "Lanczos failed" in caplog.text and "No convergence" in caplog.text
    npt.assert_array_equal(fallback.coefficients, dense.coefficients)
    npt.assert_array_equal(fallback.eigenvalues, dense.eigenvalues)


def test_transform_validation(small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 2)
    with pytest.raises(InvalidInput):
        transform(model, np.ones((3, small_data.X.shape[1] + 1)))
    with pytest.raises(InvalidInput, match="ndim=3"):
        transform(model, np.zeros((3, small_data.X.shape[1], 2)))
    with pytest.raises(InvalidInput, match="numeric"):
        transform(model, [["a"] * small_data.X.shape[1]])
    for bad in (np.nan, np.inf):
        Z = small_data.X[:3].copy()
        Z[1, 2] = bad
        for query in (Z, Z[1:2]):  # a batch and a single query
            with pytest.raises(InvalidInput, match="finite"):
                transform(model, query)


@pytest.mark.parametrize("huge", [1e160, 1e300, 1.7e308, np.nan])
def test_huge_features_are_invalid_input(huge, small_data, rbf):
    """A row whose squared norm overflows used to fit with numpy overflow
    warnings and project to NaN; fits, kernels and transform reject it."""
    model = fit_dcm(small_data, rbf, 1e-3, 2)
    X = small_data.X.copy()
    X[0, 0] = huge
    calls = [lambda: gram(rbf, X), lambda: cross_gram(rbf, X, X[:2]),
             lambda: cross_gram(rbf, small_data.X, X[:2]), lambda: transform(model, X[:3]),
             lambda: transform(model, X[:1])]
    if np.isfinite(huge):  # DataSet itself rejects a NaN row
        data = DataSet(X=X, y=small_data.y, d=small_data.d)
        calls += [lambda: fit_dcm(data, rbf, 1e-3, 2),
                  lambda: fit_fastdcm(data, rbf, 1e-3, 2, 10, 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInput, match="finite with squared norms"):
                call()


def test_squared_norms_just_under_the_bound_evaluate_without_warnings():
    """Below _MAX_SQ_NORM no partial sum of the distance product overflows."""
    x = 0.99 * np.sqrt(_MAX_SQ_NORM)
    X = np.array([[x], [-x], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = cross_gram(KernelSpec("rbf", 0.5), X, X)
    npt.assert_array_equal(K, np.eye(3))


@pytest.mark.parametrize("gamma", [5.0, 100.0])
def test_wide_kernels_near_the_norm_bound_evaluate_without_warnings(gamma):
    """For gamma > 1, -gamma ||x - z||^2 overflows to -inf near the norm
    bound. The entry, 0, is right, and numpy stays silent: the suite makes
    every RuntimeWarning an error."""
    spec = KernelSpec("rbf", gamma)
    x = 0.99 * np.sqrt(_MAX_SQ_NORM)
    X = np.array([[x], [-x], [0.0]])
    npt.assert_array_equal(gram(spec, X), np.eye(3))
    npt.assert_array_equal(cross_gram(spec, X, X), np.eye(3))
    npt.assert_array_equal(cross_gram(spec, [[1e153]], [[-1e153], [0.0]]), [[0.0, 0.0]])
    model = ProjectionModel("dcm", np.arange(6.0).reshape(3, 2), np.ones(2), X, spec,
                            np.array([0.1, 0.2, 0.3]))
    for Z in (X, X[:1], X[2:]):  # a batch, and single queries with and without the clamp
        npt.assert_allclose(transform(model, Z), unfused_transform(model, Z), rtol=0,
                            atol=1e-12)


@pytest.mark.parametrize("gamma", [1e-308, 5e-324, np.float64(1e-308), 10**308],
                         ids=["1e-308", "5e-324", "np-1e-308", "int-1e308"])
def test_extreme_gammas_serve_without_warnings(gamma):
    """Dividing the clamp bound by a gamma this small overflows, and an int
    gamma this large is not a float: transform serves both, silently."""
    X = np.array([[0.0], [1.0], [3.0]])
    model = ProjectionModel("dcm", np.arange(6.0).reshape(3, 2), np.ones(2), X,
                            KernelSpec("rbf", gamma), np.array([0.1, 0.2, 0.3]))
    for Z in (X, X[:1]):
        npt.assert_allclose(transform(model, Z), unfused_transform(model, Z), rtol=0,
                            atol=1e-12)


def test_serialization_round_trip(tmp_path, small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 3)
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    back = load_model(path)
    npt.assert_array_equal(back.coefficients, model.coefficients)
    npt.assert_array_equal(back.eigenvalues, model.eigenvalues)
    npt.assert_array_equal(back.row_means, model.row_means)
    npt.assert_array_equal(back.train_X, model.train_X)
    assert back.spec_x == model.spec_x
    assert back.algorithm == "dcm"
    assert back.landmarks is None
    npt.assert_array_equal(transform(back, small_data.X[:5]),
                           transform(model, small_data.X[:5]))


def test_serialization_rejects_garbage(tmp_path, small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 2)
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    blob = bytearray(open(path, "rb").read())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(InvalidInput, match="not a projection model"):
        load_model(str(bad))

    import struct

    bad.write_bytes(bytes(blob[:4]) + struct.pack("<I", 99) + bytes(blob[8:]))
    with pytest.raises(InvalidInput, match="version"):
        load_model(str(bad))

    # cut inside the fixed header, inside the JSON header, inside the
    # payload; then a payload longer than the header implies
    for damaged in (blob[:10], blob[:20], blob[:-100], blob + bytes(8)):
        bad.write_bytes(bytes(damaged))
        with pytest.raises(InvalidInput, match="truncated|payload"):
            load_model(str(bad))

    # full-length but corrupt JSON headers: not JSON, not an object, a
    # missing key, a count that is not a non-negative integer, a bad
    # gamma, kernel or algorithm
    import json

    hlen = struct.unpack("<I", bytes(blob[8:12]))[0]
    start = 12
    damaged = bytearray(blob)
    damaged[start] = ord("#")
    bad.write_bytes(bytes(damaged))
    with pytest.raises(InvalidInput, match="not valid JSON"):
        load_model(str(bad))

    header = json.loads(bytes(blob[start:start + hlen]))

    def with_header(text):
        raw = text.encode()
        return (bytes(blob[:8]) + struct.pack("<I", len(raw)) + raw
                + bytes(blob[start + hlen:]))

    bad.write_bytes(with_header(json.dumps([header])))
    with pytest.raises(InvalidInput, match="not a JSON object"):
        load_model(str(bad))
    bad.write_bytes(with_header(json.dumps({k: v for k, v in header.items() if k != "m"})))
    with pytest.raises(InvalidInput, match="lacks"):
        load_model(str(bad))
    bad.write_bytes(with_header(json.dumps(dict(header, n_train="90"))))
    with pytest.raises(InvalidInput, match="integers"):
        load_model(str(bad))
    # a zero count that no fit produces, in a file whose payload length
    # matches its header, so that the count check fires
    X = small_data.X[:5]
    for name, coef, eigenvalues, train_X in (
            ("n_train", np.zeros((0, 2)), np.ones(2), X[:0]),
            ("m", np.zeros((5, 0)), np.zeros(0), X),
            ("n_features", np.zeros((5, 2)), np.ones(2), X[:, :0])):
        save_model(ProjectionModel("dcm", coef, eigenvalues, train_X, rbf,
                                   np.zeros(len(train_X))), str(bad))
        with pytest.raises(InvalidInput, match=rf"bad.bin: .*\['{name}'\] must be"):
            load_model(str(bad))
    bad.write_bytes(with_header(json.dumps(dict(header, kernel_gamma="0.5"))))
    with pytest.raises(InvalidInput, match="gamma"):
        load_model(str(bad))
    bad.write_bytes(with_header(json.dumps(dict(header, kernel_kind="delta",
                                                kernel_gamma=None))))
    with pytest.raises(InvalidInput, match="not rbf"):
        load_model(str(bad))
    for algorithm in (["x"], 1, None):
        bad.write_bytes(with_header(json.dumps(dict(header, algorithm=algorithm))))
        with pytest.raises(InvalidInput, match="algorithm .* is not a string"):
            load_model(str(bad))


def test_load_model_rejects_corrupt_payloads(tmp_path, small_data, rbf):
    import json
    import struct

    model = fit_fastdcm(small_data, rbf, 1e-3, 2, M=20, seed=0)
    path = str(tmp_path / "m.bin")
    save_model(model, path)
    blob = bytes(open(path, "rb").read())
    hlen = struct.unpack("<I", blob[8:12])[0]
    header = json.loads(blob[12:12 + hlen])
    N, n, m = (header[k] for k in ("n_train", "n_features", "m"))
    # byte offsets of the float blocks and of the landmark block
    starts = {"coefficients": 0, "eigenvalues": N * m, "row_means": N * m + m,
              "train_X": N * m + m + N}
    payload = 12 + hlen
    landmarks_at = payload + 8 * (N * m + m + N + N * n)
    bad = tmp_path / "bad.bin"

    def patched(offset, raw):
        return blob[:offset] + raw + blob[offset + len(raw):]

    for name, start in starts.items():
        for value in (np.nan, np.inf):
            bad.write_bytes(patched(payload + 8 * start + 8, struct.pack("<d", value)))
            with pytest.raises(InvalidInput, match=f"{name} are not all finite"):
                load_model(str(bad))
    first = struct.unpack("<q", blob[landmarks_at:landmarks_at + 8])[0]
    for index, match in ((-5, r"\[0, "), (N, r"\[0, "), (first, "distinct")):
        bad.write_bytes(patched(landmarks_at + 8, struct.pack("<q", index)))
        with pytest.raises(InvalidInput, match=match):
            load_model(str(bad))
    raw = json.dumps(dict(header, kernel_gamma=float("inf")), sort_keys=True).encode()
    bad.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[payload:])
    with pytest.raises(InvalidInput, match="finite gamma"):
        load_model(str(bad))
    npt.assert_array_equal(load_model(path).landmarks, model.landmarks)


def test_permutation_equivariance(rbf):
    data = synth_generate(SynthConfig(T=4, mean_count=20, seed=21))
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(data))
    shuffled = DataSet(X=data.X[perm], y=data.y[perm], d=data.d[perm])
    m1 = fit_dcm(data, rbf, 1e-3, 3)
    m2 = fit_dcm(shuffled, rbf, 1e-3, 3)
    npt.assert_allclose(m1.eigenvalues, m2.eigenvalues, atol=1e-8)
    Q = data.X[:11] + 0.05
    npt.assert_allclose(transform(m1, Q), transform(m2, Q), atol=1e-6)
