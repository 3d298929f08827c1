import numpy as np
import numpy.testing as npt
import pytest

from conftest import build_bundle, eval_kernel

from covmin import InvalidInput, KernelSpec
from covmin.kernels import (
    center_cross_from_means,
    center_gram,
    cross_gram,
    gram,
    median_gamma,
)

E1 = np.exp(-1.0)  # 0.36787944117144233


def test_spec_validation():
    with pytest.raises(InvalidInput):
        KernelSpec("cosine")
    with pytest.raises(InvalidInput):
        KernelSpec("rbf")
    with pytest.raises(InvalidInput):
        KernelSpec("rbf", -1.0)
    assert KernelSpec("delta").gamma is None


def test_eval_kernel_values():
    spec = KernelSpec("rbf", 0.5)
    assert eval_kernel(spec, (3.0, -2.0), (3.0, -2.0)) == 1.0
    # gamma * ||a-b||^2 = 0.5 * 2 = 1
    assert abs(eval_kernel(spec, (0.0, 0.0), (1.0, 1.0)) - E1) < 1e-15
    assert eval_kernel(KernelSpec("delta"), 3, 7) == 0.0
    assert eval_kernel(KernelSpec("delta"), 3, 3) == 1.0
    with pytest.raises(InvalidInput):
        eval_kernel(spec, (1.0,), (1.0, 2.0))


def test_gram_values():
    K = gram(KernelSpec("rbf", 1.0), [[5.0]])
    npt.assert_array_equal(K, [[1.0]])

    K = gram(KernelSpec("delta"), [1, 1, 2])
    npt.assert_array_equal(K, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    K = gram(KernelSpec("rbf", 0.5), [[0.0, 0.0], [1.0, 1.0]])
    npt.assert_allclose(K, [[1.0, E1], [E1, 1.0]], rtol=0, atol=1e-15)


def test_gram_symmetric_unit_diagonal(rbf):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((17, 3))
    K = gram(rbf, X)
    npt.assert_array_equal(K, K.T)
    npt.assert_array_equal(np.diag(K), np.ones(17))
    # entrywise agreement with the scalar evaluator
    for i in (0, 5, 11):
        for j in (2, 9):
            assert abs(K[i, j] - eval_kernel(rbf, X[i], X[j])) < 1e-12


def test_cross_gram_values(rbf):
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    npt.assert_allclose(cross_gram(rbf, X, X), gram(rbf, X), atol=1e-12)

    # single test point equal to a training point: a 1 in that row
    col = cross_gram(rbf, X, X[1:2])
    assert col[1, 0] == 1.0
    assert col.shape == (3, 1)

    K = cross_gram(KernelSpec("rbf", 1.0), [0.0], [1.0, 2.0])
    npt.assert_allclose(K, [[np.exp(-1.0), np.exp(-4.0)]], atol=1e-15)

    with pytest.raises(InvalidInput):
        cross_gram(rbf, X, np.ones((2, 3)))


def test_center_gram_values():
    npt.assert_allclose(center_gram(np.ones((4, 4))), np.zeros((4, 4)), atol=1e-15)
    npt.assert_allclose(center_gram(np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    K = A @ A.T
    C = center_gram(K)
    npt.assert_allclose(center_gram(C), C, atol=1e-12)  # H is idempotent
    npt.assert_allclose(C.sum(axis=0), np.zeros(6), atol=1e-12)
    with pytest.raises(InvalidInput):
        center_gram(np.ones((2, 3)))


def test_center_cross_matches_gram_columns():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    K = A @ A.T
    Kc = center_gram(K)
    out = center_cross_from_means(K[:, [1, 3]], K.mean(axis=1))
    npt.assert_allclose(out, Kc[:, [1, 3]], atol=1e-12)

    npt.assert_allclose(center_cross_from_means(np.ones((4, 1)), np.ones(4)),
                        np.zeros((4, 1)), atol=1e-15)
    with pytest.raises(InvalidInput):
        center_cross_from_means(np.ones((3, 1)), np.ones(4))


def test_center_cross_uses_training_means_only(rbf):
    # project a training point as if it were new data: the centered column
    # must reproduce the centered Gram column, regardless of other test points
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 2))
    K = gram(rbf, X)
    far = np.full((1, 2), 50.0)
    Kz = cross_gram(rbf, X, np.vstack([X[2:3], far]))
    out = center_cross_from_means(Kz, K.mean(axis=1))
    npt.assert_allclose(out[:, 0], center_gram(K)[:, 2], atol=1e-10)


def test_median_gamma():
    assert median_gamma([1.0, 2.0, 3.0]) == pytest.approx(1.0 / 8.0)
    assert median_gamma([-2.0, 2.0, -2.0, 2.0, 0.0]) == pytest.approx(1.0 / 8.0)  # MAD fallback
    assert median_gamma(np.zeros(5)) == 1.0


def test_build_bundle_defaults(rbf):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 2))
    y = np.where(rng.standard_normal(12) > 0, 1.0, -1.0)
    d = rng.integers(1, 3, size=12)
    Kx, Ky, Kd = build_bundle(X, y, d, rbf)
    npt.assert_array_equal(Kx, center_gram(gram(rbf, X)))
    npt.assert_allclose(Ky, center_gram(gram(KernelSpec("delta"), y)), atol=1e-14)
    npt.assert_allclose(Kd, center_gram(gram(KernelSpec("delta"), d)), atol=1e-14)
