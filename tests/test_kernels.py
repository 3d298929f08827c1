import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import build_bundle, eval_kernel

from covmin import InvalidInput, KernelSpec, kernels
from covmin.kernels import (
    _UNCLAMPED_LIMIT,
    _lift_rows,
    center_cross_from_means,
    center_gram,
    cross_gram,
    gram,
    median_gamma,
    rbf_cross_product,
)

E1 = np.exp(-1.0)  # 0.36787944117144233


def test_spec_validation():
    with pytest.raises(InvalidInput):
        KernelSpec("cosine")
    with pytest.raises(InvalidInput):
        KernelSpec("rbf")
    with pytest.raises(InvalidInput):
        KernelSpec("rbf", -1.0)
    # an int gamma must be a finite float too; numpy scalars are checked
    # without a numpy warning
    with pytest.raises(InvalidInput, match="finite gamma"):
        KernelSpec("rbf", 10**400)
    assert KernelSpec("rbf", 10**300).gamma == 10**300
    assert KernelSpec("rbf", np.float32(0.5)).gamma == 0.5
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


def test_gram_of_identical_values_is_exactly_one():
    # the lifted product gives a squared distance of exactly 0 between
    # identical 1-D values, whatever gamma, clamped or not
    v = np.full(7, 3.0)
    npt.assert_array_equal(gram(KernelSpec("rbf", 0.7), v), np.ones((7, 7)))
    npt.assert_array_equal(cross_gram(KernelSpec("rbf", 0.7), v, v[:3]), np.ones((7, 3)))
    for Z in (v[:3, None], v[:1, None]):  # a batch and a single query
        npt.assert_array_equal(rbf_cross_product(0.7, _lift_rows(v[:, None]), Z, np.eye(7)),
                               np.ones((7, len(Z))))


def test_gram_and_cross_gram_entries_never_exceed_one():
    """Rounding takes some squared distances between nearly coincident
    rows below 0: unclamped, 691 of these cross-Gram entries would exceed
    1, by up to 5.6e-9. gram and cross_gram clamp them at exactly 1."""
    rng = np.random.default_rng(0)
    X = 1e3 * rng.standard_normal((2000, 10))
    Z = X + 1e-9 * rng.standard_normal(X.shape)
    spec = KernelSpec("rbf", 0.5)
    assert cross_gram(spec, X, Z).max() == 1.0
    assert gram(spec, Z).max() == 1.0


@pytest.mark.parametrize("scale", [0.9, 10.0, 1e12])
def test_served_entries_exceed_one_by_rounding_at_most(scale):
    """Serving leaves its entries unclamped while gamma (d + 2) max |z|^2
    is below _UNCLAMPED_LIMIT (scale < 1), where none exceeds exp(2**-20),
    and clamps them at 1 beyond it, where coincident rows would otherwise
    give entries up to inf (scale 1e12: coordinates near 4e9). A single
    query is clamped by its own norm, on either side of the limit."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 10))
    X *= np.sqrt(scale * _UNCLAMPED_LIMIT / (0.5 * 12 * np.einsum("ij,ij->i", X, X).max()))
    Xl = _lift_rows(X)
    served = rbf_cross_product(0.5, Xl, X, np.eye(len(X)))
    assert served.min() >= 0.0
    assert served.max() <= (np.exp(2.0 ** -20) if scale < 1 else 1.0)
    for z in X:
        served = rbf_cross_product(0.5, Xl, z[None, :], np.eye(len(X)))
        assert served.min() >= 0.0
        assert served.max() <= (np.exp(2.0 ** -20) if 0.5 * 12 * z @ z < _UNCLAMPED_LIMIT
                                else 1.0)


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


@pytest.mark.parametrize("N, block", [(1, None), (50, 1), (50, 350), (700, None)])
def test_gram_is_the_mean_of_both_triangles(N, block, rbf, monkeypatch):
    """Within each strip's diagonal block, gram is the mean of both
    triangles; elsewhere it mirrors the strips. It evaluates in strips (of
    all rows, of 1 row, of 7 rows with a last strip of 1, of 374 and 326
    rows) on and right of the diagonal. Every entry is bit for bit that of
    the strip's cross_gram against the rows from its first on, with the
    diagonal block's out-of-place (B + B^T) / 2, the rest mirrored below
    the diagonal and a unit diagonal."""
    if block is not None:
        monkeypatch.setattr("covmin.kernels._STRIP", block)
    X = np.random.default_rng(N).standard_normal((N, 3))
    step = max(1, kernels._STRIP // N)
    expected = np.empty((N, N))
    for lo in range(0, N, step):
        hi = min(lo + step, N)
        K = cross_gram(rbf, X[lo:hi], X[lo:])
        B, rest = K[:, :hi - lo], K[:, hi - lo:]
        expected[lo:hi, lo:hi] = 0.5 * (B + B.T)
        expected[lo:hi, hi:] = rest
        expected[hi:, lo:hi] = rest.T
    np.fill_diagonal(expected, 1.0)
    npt.assert_array_equal(gram(rbf, X), expected)


def test_gram_allocates_only_its_output(rbf):
    X = np.random.default_rng(0).standard_normal((1600, 10))
    tracemalloc.start()
    try:
        K = gram(rbf, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * K.nbytes


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
    with pytest.raises(InvalidInput, match="ndim=3"):
        cross_gram(rbf, X, np.ones((2, 2, 2)))
    with pytest.raises(InvalidInput, match="numeric"):
        cross_gram(rbf, [["a"]], X)


def test_cross_gram_allocates_only_its_output(rbf):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20000, 10))
    Z = rng.standard_normal((100, 10))
    tracemalloc.start()
    try:
        K = cross_gram(rbf, X, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * K.nbytes


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
    with pytest.raises(InvalidInput):
        center_gram(np.zeros((0, 0)))


@pytest.mark.parametrize("N", [1, 2, 17, 700])
def test_center_gram_of_a_gram_is_symmetric_hkh(N, rbf):
    """On gram outputs, center_gram is exactly symmetric and agrees with an
    explicit H K H, H = I - 11^T / N."""
    K = gram(rbf, np.random.default_rng(N).standard_normal((N, 4)))
    C = center_gram(K)
    npt.assert_array_equal(C, C.T)
    H = np.eye(N) - 1.0 / N
    assert np.abs(C - H @ K @ H).max() <= 1e-13 * np.abs(K).max()


def test_center_gram_allocates_only_its_output(rbf):
    K = gram(rbf, np.random.default_rng(0).standard_normal((1600, 10)))
    tracemalloc.start()
    try:
        C = center_gram(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * C.nbytes


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
