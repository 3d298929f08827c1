import numpy as np
import numpy.testing as npt
import pytest
from conftest import principal_angles, sketch_blocks, solved_pencil

from covmin import (
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
    median_gamma,
    sample_landmarks,
    split_domains,
    synth_generate,
    transform,
)
from covmin import fastpath
from covmin.dcm import _fit_factor
from covmin.errors import RankDeficient
from covmin.evaluate import _split_stream
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


def _assert_blocks_match(sk, data, idx, oracle, spec_y=None, spec_d=None, atol=1e-12):
    """The sketch's input blocks against the oracle's: Wt_x is the inverse
    of its landmark block Wx jittered by 1e-10, and Cx^T Cx is its Sxx.
    Then F F^T of the output and domain factors (_side_factor) against its
    jittered Nystrom kernels; atol bounds the kernels' rounding, which
    grows with the landmark blocks' condition. spec_y and spec_d default
    to delta."""
    npt.assert_array_equal(sk.Wt_x, ridge_inverse(oracle["Wx"], 1e-10))
    npt.assert_allclose(sk.Cx.T @ sk.Cx, oracle["Sxx"], rtol=0, atol=1e-12)
    for name, spec, values in (("Ky", spec_y, data.y), ("Kd", spec_d, data.d)):
        F = fastpath._side_factor(spec or KernelSpec("delta"), values, idx)
        npt.assert_allclose(F @ F.T, oracle[name], rtol=0, atol=atol, err_msg=name)


def test_build_sketch_small_blocks(rbf, small_data):
    N = len(small_data)
    idx = sample_landmarks(N, 8, 2)
    sk = build_sketch(small_data, rbf, idx)
    # default delta label and domain kernels, against H cross_gram blocks
    _assert_blocks_match(sk, small_data, idx, sketch_blocks(small_data, idx, rbf))
    # column centering is exact
    npt.assert_allclose(sk.Cx.sum(axis=0), np.zeros(8), atol=1e-9)
    # RBF output and domain kernels; their landmark blocks have condition
    # numbers up to 4e4, so the kernels agree to about 1e-12
    for seed in range(3):
        sk, data, idx = _well_conditioned_sketch(seed)
        _assert_blocks_match(sk, data, idx, sketch_blocks(data, idx, *_WELL_CONDITIONED_SPECS),
                             *_WELL_CONDITIONED_SPECS[1:], atol=1e-11)
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
    npt.assert_allclose(sk.row_means, gram(rbf, data.X).mean(axis=1), atol=1e-6)


#: input, output and domain kernels of _well_conditioned_sketch
_WELL_CONDITIONED_SPECS = (KernelSpec("rbf", 0.7), KernelSpec("rbf", 0.4),
                           KernelSpec("rbf", 0.9))


def _well_conditioned_sketch(seed, N=40, M=3):
    """Sketch of data meant for RBF kernels on all three variables
    (_WELL_CONDITIONED_SPECS), so every landmark block is invertible
    without leaning on the jitter."""
    rng = np.random.default_rng(seed)
    data = DataSet(
        X=rng.standard_normal((N, 3)),
        y=rng.standard_normal(N),
        d=rng.standard_normal(N),
    )
    idx = sample_landmarks(N, M, seed)
    return build_sketch(data, _WELL_CONDITIONED_SPECS[0], idx), data, idx


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compute_omega_transcription_oracle(seed):
    """U = Cx omega is orthonormal and U diag(values) U^T is the centered
    approximated input Gram Cx Wt_x Cx^T, values descending, all 3 of
    them positive; build_sketch keeps them."""
    sk, _, _ = _well_conditioned_sketch(seed)
    values, omega = compute_omega(sk.Cx.T @ sk.Cx, sk.Wt_x)
    npt.assert_array_equal(values, sk.values)
    npt.assert_array_equal(omega, sk.omega)
    assert len(values) == 3
    U = sk.Cx @ omega
    npt.assert_allclose(U.T @ U, np.eye(len(values)), atol=1e-12)
    approx = sk.Cx @ sk.Wt_x @ sk.Cx.T
    npt.assert_allclose((U * values) @ U.T, approx, atol=1e-12 * np.abs(approx).max())
    assert np.all(np.diff(values) <= 0) and values[-1] > 0


def _hand_sketch(Cx):
    """A sketch with a unit inverse landmark block around a given input
    block."""
    N, M = Cx.shape
    values, omega = compute_omega(Cx.T @ Cx, np.eye(M))
    return NystromSketch(spec=KernelSpec("rbf", 1.0), Cx=Cx, Wt_x=np.eye(M),
                         values=values, omega=omega, row_means=np.zeros(N),
                         landmarks=np.arange(M))


def test_compute_omega_zero_blocks(rbf):
    """A zero input block has rank 0: no pairs, and a fit on identical rows,
    whose centered block is exactly zero, raises RankDeficient."""
    values, omega = compute_omega(np.zeros((3, 3)), np.eye(3))
    assert values.shape == (0,) and omega.shape == (3, 0)
    data = DataSet(X=np.ones((6, 2)), y=np.tile([1.0, -1.0], 3), d=np.repeat([1, 2], 3))
    for fit in (fit_fastdcm, fit_fastcoir):
        with pytest.raises(RankDeficient):
            fit(data, rbf, 1e-3, 1, 3, 0)


def test_omega_zero_domain_equals_constant_domain(rbf):
    """A constant domain kernel contributes nothing to the landmark pencil:
    the domain term dropped (fastcoir) gives the fastdcm fit."""
    data = synth_generate(SynthConfig(T=1, mean_count=50, seed=9))
    full = fit_fastdcm(data, rbf, 1e-3, 3, 10, 0)
    dropped = fit_fastcoir(data, rbf, 1e-3, 3, 10, 0)
    npt.assert_allclose(full.eigenvalues, dropped.eigenvalues, rtol=1e-12)
    npt.assert_allclose(full.coefficients, dropped.coefficients,
                        atol=1e-10 * np.abs(full.coefficients).max())


def test_fast_eig_identity_case():
    M, N = 4, 9
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((N, M)))
    sk = _hand_sketch(Q)
    vals, omega = sk.values, sk.omega
    assert len(vals) == M
    npt.assert_allclose(vals, np.ones(M), atol=1e-12)
    U = sk.Cx @ omega
    assert U.shape == (N, M)
    npt.assert_allclose(U.T @ U, np.eye(M), atol=1e-12)


def test_fast_eig_rank_one_sketch():
    u = np.arange(1.0, 8.0)[:, None]
    sk = _hand_sketch(u @ np.array([[1.0, -1.0, 2.0]]))
    vals, omega = sk.values, sk.omega
    assert omega.shape == (3, 1)
    # Cx Cx^T = u v v^T u^T: one direction u / |u|, value |u|^2 |v|^2
    npt.assert_allclose(np.abs(sk.Cx @ omega)[:, 0], u[:, 0] / np.linalg.norm(u))
    npt.assert_allclose(vals, [140.0 * 6.0])
    # the fit tail asks for m = 2 directions of the rank-one sketch
    data = DataSet(X=u, y=np.tile([1.0, -1.0], 4)[:7], d=np.ones(7, dtype=np.int64))
    with pytest.raises(RankDeficient):
        _fit_factor("fastdcm", data, sk, None, None, 1e-3, 2)


@pytest.mark.parametrize("fit", [fit_fastdcm, fit_fastcoir])
@pytest.mark.parametrize("continuous", [True, False])
def test_fast_eigenpairs_solve_the_approximated_pencil(fit, continuous):
    """The fast fit is the dense fit's pencil on the landmark-approximated
    kernels: its eigenpairs solve that pencil, assembled from the kernels
    as the formulas read (sketch_blocks) by solved_pencil, to a scaled
    residual of 1e-9. A criterion-4 split (N=675), M=50; the continuous
    output has an RBF output kernel, whose landmark block is nearly
    singular."""
    data = synth_generate(SynthConfig(seed=101))
    train, _ = split_domains(data, _split_stream(101).permutation(np.unique(data.d))[:7])
    N = len(train)
    spec_y = None
    if continuous:
        y = train.X[:, 0] + 0.1 * np.arange(N) / N
        spec_y = KernelSpec("rbf", median_gamma(y))
        train = DataSet(X=train.X, y=y, d=train.d)
    rbf = KernelSpec("rbf", 0.5)
    model = fit(train, rbf, 1e-3, 5, 50, 0, spec_y=spec_y)
    K = sketch_blocks(train, model.landmarks, rbf, spec_y)
    Kd = K["Kd"] if fit is fit_fastdcm else np.zeros((N, N))
    P, Q = solved_pencil(K["Kx"], K["Ky"], Kd, 1e-3)
    nP, nQ = np.linalg.norm(P, "fro"), np.linalg.norm(Q, "fro")
    for mu, v in zip(model.eigenvalues, model.coefficients.T):
        resid = np.linalg.norm(P @ v - mu * (Q @ v))
        assert resid <= 1e-9 * (nP + abs(mu) * nQ) * np.linalg.norm(v)


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


@pytest.mark.parametrize("fit, calls", [(fit_fastdcm, 2), (fit_fastcoir, 1)])
def test_fast_fits_build_only_the_side_factors_they_read(fit, calls, rbf, small_data,
                                                         monkeypatch):
    """fastdcm builds the output and domain factors; fastcoir, which drops
    the domain term, builds only the output factor."""
    seen = []
    real = fastpath._side_factor

    def counting(spec, values, idx):
        seen.append(values)
        return real(spec, values, idx)

    monkeypatch.setattr(fastpath, "_side_factor", counting)
    fit(small_data, rbf, 1e-3, 2, 10, 0)
    assert len(seen) == calls
    assert seen[0] is small_data.y


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


def _data_with_repeated_rows():
    """150 standard-normal rows in R^10, the first 50 of them repeated,
    with +-1 labels and 3 domains."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((150, 10))
    X = np.vstack([X, X[:50]])
    y = np.where(rng.random(len(X)) < 0.5, 1.0, -1.0)
    return DataSet(X=X, y=y, d=np.arange(len(X)) % 3)


@pytest.mark.parametrize("M", [50, 200])
def test_landmark_fit_with_repeated_rows(M, rbf):
    """Two landmarks on one row make Wt_x's entries about 1 / jitter; the
    fit still runs, its directions have unit norm under the sketch, and
    with every row a landmark its eigenvalues are the dense fit's."""
    data = _data_with_repeated_rows()
    model = fit_fastdcm(data, rbf, 1e-3, 3, M, seed=0)
    landmark_rows = data.X[model.landmarks]
    assert len(np.unique(landmark_rows, axis=0)) < M  # 2 repeated pairs at M = 50
    sk = build_sketch(data, rbf, model.landmarks)
    approx = sk.Cx @ sk.Wt_x @ sk.Cx.T
    norms = np.einsum("ij,ij->j", model.coefficients, approx @ model.coefficients)
    npt.assert_allclose(norms, np.ones(3), rtol=1e-5)
    if M == len(data):
        npt.assert_allclose(model.eigenvalues, fit_dcm(data, rbf, 1e-3, 3).eigenvalues,
                            rtol=1e-5)


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
