import numpy as np
import numpy.testing as npt
import pytest
from conftest import principal_angles, sketch_blocks

from covmin import (
    ComplexSpectrum,
    DataSet,
    InvalidInput,
    KernelSpec,
    NystromSketch,
    SynthConfig,
    build_sketch,
    compute_omega,
    fit_dcm,
    fit_fastcoir,
    fit_fastdcm,
    sample_landmarks,
    synth_generate,
    transform,
)
from covmin.errors import RankDeficient
from covmin.fastpath import _fast_eig_raw
from covmin.kernels import center_gram, gram
from covmin.linalg import ridge_inverse


def test_sample_landmarks_contract():
    idx = sample_landmarks(10, 10, 3)
    assert sorted(idx) == list(range(10))
    one = sample_landmarks(10, 1, 3)
    assert 0 <= one[0] < 10
    npt.assert_array_equal(sample_landmarks(50, 7, 5), sample_landmarks(50, 7, 5))
    assert not np.array_equal(sample_landmarks(50, 7, 5), sample_landmarks(50, 7, 6))
    with pytest.raises(InvalidInput):
        sample_landmarks(10, 0, 1)
    with pytest.raises(InvalidInput):
        sample_landmarks(10, 11, 1)
    npt.assert_array_equal(sample_landmarks(50, 7, np.uint64(2**64 - 1)),
                           sample_landmarks(50, 7, 2**64 - 1))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, np.float64(1.0), True, "1"])
def test_sample_landmarks_rejects_seeds_outside_uint64(seed, rbf, small_data):
    with pytest.raises(InvalidInput, match="seed"):
        sample_landmarks(10, 3, seed)
    with pytest.raises(InvalidInput, match="seed"):
        fit_fastdcm(small_data, rbf, 1e-3, 2, 5, seed)


def _assert_blocks_match(sk, oracle):
    for name in ("Wx", "Wy", "Wd"):
        npt.assert_array_equal(getattr(sk, name), oracle[name], err_msg=name)
    for name in ("Sxx", "Sxy", "Sxd", "Syy", "Sdd"):
        npt.assert_allclose(getattr(sk, name), oracle[name], rtol=0, atol=1e-12,
                            err_msg=name)


def test_build_sketch_small_blocks(rbf, small_data):
    N = len(small_data)
    idx = sample_landmarks(N, 8, 2)
    sk = build_sketch(small_data, rbf, idx)
    # default delta label and domain kernels, against H cross_gram blocks
    _assert_blocks_match(sk, sketch_blocks(small_data, idx, rbf))
    npt.assert_allclose(sk.Sxx, sk.Cx.T @ sk.Cx, atol=1e-12)
    npt.assert_array_equal(sk.Syx, sk.Sxy.T)
    npt.assert_array_equal(sk.Sdx, sk.Sxd.T)
    # column centering is exact
    npt.assert_allclose(sk.Cx.sum(axis=0), np.zeros(8), atol=1e-9)
    # RBF output and domain kernels
    for seed in range(3):
        sk, data, idx = _well_conditioned_sketch(seed)
        _assert_blocks_match(sk, sketch_blocks(data, idx, *_WELL_CONDITIONED_SPECS))
    for bad in ([1, 1, 2], [0, N], [N - 1, -1], [0, -1], [0.5, 1.7], [], [[0, 1]]):
        with pytest.raises(InvalidInput):
            build_sketch(small_data, rbf, bad)


def test_sketch_one_sided_centering_identity(rbf, small_data):
    """H (C W~ C^T) H equals (HC) W~ (HC)^T; the sketch stores HC."""
    N = len(small_data)
    idx = sample_landmarks(N, 12, 0)
    sk = build_sketch(small_data, rbf, idx)
    Craw = gram(rbf, small_data.X)[:, idx]
    approx = Craw @ sk.Wt_x @ Craw.T
    H = np.eye(N) - np.full((N, N), 1.0 / N)
    lhs = H @ approx @ H
    rhs = sk.Cx @ sk.Wt_x @ sk.Cx.T
    npt.assert_allclose(lhs, rhs, atol=1e-9)


def test_sketch_full_sampling_reconstructs_gram(rbf):
    data = synth_generate(SynthConfig(T=3, mean_count=14, seed=3))
    N = len(data)
    sk = build_sketch(data, rbf, sample_landmarks(N, N, 1))
    Kc = center_gram(gram(rbf, data.X))
    rebuilt = sk.Cx @ sk.Wt_x @ sk.Cx.T
    err = np.linalg.norm(Kc - rebuilt, "fro") / np.linalg.norm(Kc, "fro")
    assert err <= 1e-6
    # approximated row means match the dense ones at full sampling
    npt.assert_allclose(sk.approx_row_means, gram(rbf, data.X).mean(axis=1), atol=1e-6)


#: input, output and domain kernels of _well_conditioned_sketch
_WELL_CONDITIONED_SPECS = (KernelSpec("rbf", 0.7), KernelSpec("rbf", 0.4),
                           KernelSpec("rbf", 0.9))


def _well_conditioned_sketch(seed, N=40, M=3):
    """Sketch with RBF kernels on all three variables, so every landmark
    block is invertible without leaning on the jitter."""
    rng = np.random.default_rng(seed)
    data = DataSet(
        X=rng.standard_normal((N, 3)),
        y=rng.standard_normal(N),
        d=rng.standard_normal(N),
    )
    spec_x, spec_y, spec_d = _WELL_CONDITIONED_SPECS
    idx = sample_landmarks(N, M, seed)
    return build_sketch(data, spec_x, idx, spec_y=spec_y, spec_d=spec_d), data, idx


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compute_omega_transcription_oracle(seed):
    """Direct evaluation of the reduction formula, explicit inverses."""
    sk, data, _ = _well_conditioned_sketch(seed)
    N = len(data)
    eps = 1e-2
    Ne = N * eps
    M = sk.Sxx.shape[0]
    I = np.eye(M)
    Wt_x = sk.Wt_x
    Wt_y = ridge_inverse(sk.Wy, sk.jitter_y)
    Wt_d = ridge_inverse(sk.Wd, sk.jitter_d)
    lhs = (
        Wt_x @ sk.Sxd @ Wt_d @ np.linalg.inv(sk.Sdd @ Wt_d + Ne * I)
        @ sk.Sdx @ Wt_x @ sk.Sxx @ Wt_x @ sk.Sxx
        + Wt_x @ sk.Sxx @ Wt_x @ sk.Sxx
        + Ne * I
    )
    rhs = (
        Wt_x @ sk.Sxy @ Wt_y @ np.linalg.inv(sk.Syy @ Wt_y + Ne * I)
        @ sk.Syx @ Wt_x @ sk.Sxx @ Wt_x
        + Wt_x @ sk.Sxx @ Wt_x
    )
    direct = np.linalg.solve(lhs, rhs)
    omega = compute_omega(sk, N, eps)
    npt.assert_allclose(omega, direct, rtol=1e-6, atol=1e-10)


def test_compute_omega_zero_blocks():
    M = 3
    zero = np.zeros((M, M))
    sk = NystromSketch(
        landmark_indices=np.arange(M),
        Cx=np.zeros((6, M)),
        Wx=np.eye(M), Wy=np.eye(M), Wd=np.eye(M),
        Wt_x=np.eye(M),
        jitter_x=0.0, jitter_y=0.0, jitter_d=0.0,
        Sxx=zero, Sxy=zero, Sxd=zero, Syy=zero, Sdd=zero,
        approx_row_means=np.zeros(6),
    )
    npt.assert_allclose(compute_omega(sk, 6, 0.5), zero, atol=1e-14)
    with pytest.raises(InvalidInput):
        compute_omega(sk, 6, 0.0)


def test_omega_zero_domain_equals_constant_domain(rbf):
    data = synth_generate(SynthConfig(T=1, mean_count=50, seed=9))
    idx = sample_landmarks(len(data), 10, 0)
    sk = build_sketch(data, rbf, idx)
    full = compute_omega(sk, len(data), 1e-3, zero_domain=False)
    dropped = compute_omega(sk, len(data), 1e-3, zero_domain=True)
    npt.assert_allclose(full, dropped, atol=1e-12)


def test_fast_eig_identity_case():
    M, N = 4, 9
    rng = np.random.default_rng(5)
    sk = NystromSketch(
        landmark_indices=np.arange(M),
        Cx=rng.standard_normal((N, M)),
        Wx=np.eye(M), Wy=np.eye(M), Wd=np.eye(M),
        Wt_x=np.eye(M),
        jitter_x=0.0, jitter_y=0.0, jitter_d=0.0,
        Sxx=np.eye(M), Sxy=np.zeros((M, M)), Sxd=np.zeros((M, M)),
        Syy=np.eye(M), Sdd=np.eye(M),
        approx_row_means=np.zeros(N),
    )
    vals, B = _fast_eig_raw(sk, np.eye(M), M)
    npt.assert_allclose(vals, np.ones(M), atol=1e-12)
    assert (sk.Cx @ B).shape == (N, M)


def test_fast_eig_rank_one_sketch():
    M, N = 3, 7
    u = np.arange(1.0, N + 1.0)[:, None]
    v = np.array([[1.0, -1.0, 2.0]])
    Cx = u @ v
    sk = NystromSketch(
        landmark_indices=np.arange(M),
        Cx=Cx,
        Wx=np.eye(M), Wy=np.eye(M), Wd=np.eye(M),
        Wt_x=np.eye(M),
        jitter_x=0.0, jitter_y=0.0, jitter_d=0.0,
        Sxx=Cx.T @ Cx, Sxy=np.zeros((M, M)), Sxd=np.zeros((M, M)),
        Syy=np.eye(M), Sdd=np.eye(M),
        approx_row_means=np.zeros(N),
    )
    vals, B = _fast_eig_raw(sk, np.eye(M), 1)
    assert (sk.Cx @ B).shape[1] == 1
    with pytest.raises(RankDeficient):
        _fast_eig_raw(sk, np.eye(M), 2)


def test_full_sampling_matches_dense(rbf):
    data = synth_generate(SynthConfig(T=4, mean_count=25, seed=14))
    N = len(data)
    dense = fit_dcm(data, rbf, 1e-3, 3)
    fast = fit_fastdcm(data, rbf, 1e-3, 3, N, 0)
    Kc = center_gram(gram(rbf, data.X))
    angles = principal_angles(dense.coefficients, fast.coefficients, Kc)
    assert np.max(angles) <= 1e-4
    # transforms agree too at full sampling
    Q = data.X[:9] * 0.9
    npt.assert_allclose(transform(fast, Q), transform(dense, Q), atol=1e-4)


@pytest.mark.parametrize("fit", [fit_fastdcm, fit_fastcoir])
def test_fast_coefficients_have_unit_norm_under_the_sketch(rbf, small_data, fit):
    model = fit(small_data, rbf, 1e-3, 4, 20, 3)
    sk = build_sketch(small_data, rbf, model.landmarks)
    approx = sk.Cx @ sk.Wt_x @ sk.Cx.T
    norms = np.einsum("ij,ij->j", model.coefficients, approx @ model.coefficients)
    npt.assert_allclose(norms, np.ones(4), rtol=1e-8)


def test_fit_fast_validation(rbf, small_data):
    with pytest.raises(InvalidInput):
        fit_fastdcm(small_data, rbf, 1e-3, 6, 5, 0)
    with pytest.raises(InvalidInput):
        fit_fastdcm(small_data, rbf, 1e-3, 2, len(small_data) + 1, 0)


def test_fit_fast_rank_deficient_raises(rbf):
    X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 4, axis=0)
    data = DataSet(X=X, y=np.tile([1.0, -1.0], 4), d=np.ones(8, dtype=np.int64))
    with pytest.raises(RankDeficient):
        fit_fastdcm(data, rbf, 1e-3, 3, 8, 0)


def test_fast_path_handles_duplicate_landmark_labels(rbf, small_data):
    # binary y and few domains make the y/d landmark blocks singular;
    # the jittered solves must still produce a usable fit
    model = fit_fastdcm(small_data, rbf, 1e-3, 3, 30, 2)
    assert model.coefficients.shape == (len(small_data), 3)
    assert np.all(np.isfinite(model.coefficients))
    assert model.landmarks is not None and len(model.landmarks) == 30


def test_fastcoir_ignores_domains(rbf, small_data):
    a = fit_fastcoir(small_data, rbf, 1e-3, 3, 25, 1)
    relabeled = DataSet(X=small_data.X, y=small_data.y,
                        d=np.arange(len(small_data)) % 2)
    b = fit_fastcoir(relabeled, rbf, 1e-3, 3, 25, 1)
    npt.assert_allclose(a.coefficients, b.coefficients, atol=1e-10)
    assert a.algorithm == "fastcoir"


def test_seed_changes_subspace(rbf):
    data = synth_generate(SynthConfig(T=5, mean_count=40, seed=2))
    m1 = fit_fastdcm(data, rbf, 1e-3, 3, 20, 0)
    m2 = fit_fastdcm(data, rbf, 1e-3, 3, 20, 1)
    Kc = center_gram(gram(rbf, data.X))
    angles = principal_angles(m1.coefficients, m2.coefficients, Kc)
    assert np.max(angles) > 1e-4


def test_small_landmark_protocol_scale(rbf, small_data):
    # M=5 with a tight ridge, the scale used for small clinical tables
    model = fit_fastdcm(small_data, rbf, 1e-4, 2, 5, 0)
    assert model.m == 2


def test_no_dense_gram_materialized(rbf):
    """With M well below N the fit must never allocate an N x N matrix."""
    import tracemalloc

    data = synth_generate(SynthConfig(T=10, mean_count=200, seed=0))
    N = len(data)
    assert N > 1500
    tracemalloc.start()
    tracemalloc.reset_peak()
    fit_fastdcm(data, rbf, 1e-3, 3, 40, 0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    dense_gram_bytes = 8 * N * N
    assert peak < 0.5 * dense_gram_bytes
