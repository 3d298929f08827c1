import numpy as np
import numpy.testing as npt
import pytest
from conftest import build_bundle, principal_angles, solved_pencil

from covmin import (
    DataSet,
    InvalidInput,
    KernelSpec,
    SynthConfig,
    build_operator_pair,
    fit_coir,
    fit_dcm,
    fit_kpca,
    load_model,
    save_model,
    synth_generate,
    transform,
)
from covmin.errors import RankDeficient
from covmin.kernels import center_gram, gram


def _random_grams(rng, N):
    """Centered PSD (Kx, Ky, Kd) with rank-2 output and domain Grams."""
    def psd(k):
        A = rng.standard_normal((N, k))
        return center_gram(A @ A.T)

    return psd(N), psd(2), psd(2)


def test_operator_pair_transcription_oracle():
    """Recompute both operators with explicit inverses and compare."""
    rng = np.random.default_rng(0)
    for N, eps in ((3, 0.1), (7, 1e-3)):
        Kx, Ky, Kd = _random_grams(rng, N)
        A, B = build_operator_pair(Kx, Ky, Kd, eps)
        ridge = N * eps * np.eye(N)
        KxKx = Kx @ Kx
        A_ref = Ky @ np.linalg.inv(Ky + ridge) @ KxKx + Kx
        B_ref = Kd @ np.linalg.inv(Kd + ridge) @ KxKx + Kx
        npt.assert_allclose(A, A_ref, atol=1e-10)
        npt.assert_allclose(B, B_ref, atol=1e-10)


def test_operator_pair_degenerations():
    rng = np.random.default_rng(1)
    Kx, Ky, _ = _random_grams(rng, 5)
    zero = np.zeros((5, 5))

    A, B = build_operator_pair(Kx, zero, zero, 0.1)
    npt.assert_array_equal(A, Kx)
    npt.assert_array_equal(B, Kx)

    _, B = build_operator_pair(Kx, Ky, zero, 0.1)
    npt.assert_array_equal(B, Kx)


def test_operator_pair_validation():
    rng = np.random.default_rng(2)
    Kx, Ky, Kd = _random_grams(rng, 4)
    with pytest.raises(InvalidInput):
        build_operator_pair(Kx, Ky, Kd, 0.0)
    crooked = Kx + np.triu(np.ones((4, 4)))
    with pytest.raises(InvalidInput):
        build_operator_pair(crooked, Ky, Kd, 0.1)


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
    from covmin.linalg import sym_eig

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


def test_transform_validation(small_data, rbf):
    model = fit_dcm(small_data, rbf, 1e-3, 2)
    with pytest.raises(InvalidInput):
        transform(model, np.ones((3, small_data.X.shape[1] + 1)))


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
    npt.assert_allclose(transform(back, small_data.X[:5]),
                        transform(model, small_data.X[:5]), atol=1e-10)


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
