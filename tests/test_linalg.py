import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from conftest import principal_angles

from covmin import InvalidInput, SingularMatrix, linalg
from covmin.errors import RankDeficient
from covmin.linalg import gen_eig, lowrank_gen_eig, positive_eig, ridge_inverse, sym_eig


def test_sym_eig_identity_and_diag():
    pairs = sym_eig(np.eye(3))
    npt.assert_allclose(pairs.values, np.ones(3))

    pairs = sym_eig(np.diag([3.0, 1.0, 2.0]))
    npt.assert_allclose(pairs.values, [3.0, 2.0, 1.0])
    # vectors are the matching coordinate axes
    npt.assert_allclose(np.abs(pairs.vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-14)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    S = A + A.T
    pairs = sym_eig(S)
    R = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    npt.assert_allclose(R, S, atol=1e-10)
    assert np.all(np.diff(pairs.values) <= 1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        sym_eig(np.ones((2, 3)))


def test_gen_eig_simple_pencils():
    pairs = gen_eig(2.0 * np.eye(3), np.eye(3), 1)
    assert pairs.values[0] == pytest.approx(2.0, abs=1e-12)

    pairs = gen_eig(np.diag([5.0, 1.0]), np.eye(2), 1)
    assert pairs.values[0] == pytest.approx(5.0, abs=1e-12)
    npt.assert_allclose(np.abs(pairs.vectors[:, 0]), [1.0, 0.0], atol=1e-12)


def test_gen_eig_residuals_scaled():
    rng = np.random.default_rng(1)
    A0 = rng.standard_normal((8, 8))
    B0 = rng.standard_normal((8, 8))
    A = A0 @ A0.T
    B = B0 @ B0.T + 8 * np.eye(8)
    pairs = gen_eig(A, B, 4)
    for k in range(4):
        v = pairs.vectors[:, k]
        lam = pairs.values[k]
        r = np.linalg.norm(A @ v - lam * B @ v)
        bound = 1e-8 * (np.linalg.norm(A, "fro") + abs(lam) * np.linalg.norm(B, "fro"))
        assert r <= bound
    assert np.all(np.diff(pairs.values) <= 0)
    npt.assert_allclose(np.linalg.norm(pairs.vectors, axis=0), np.ones(4), rtol=1e-14)
    npt.assert_allclose(pairs.values, np.sort(sla.eigvals(A, B).real)[::-1][:4], rtol=1e-10)


def test_gen_eig_congruence_invariance():
    # the congruence (P^T A P, P^T B P) with an invertible P keeps the
    # spectrum (the default ridge is small enough not to disturb it), and
    # its eigenvectors are P^-1 times the original ones
    rng = np.random.default_rng(2)
    A0 = rng.standard_normal((6, 6))
    A = A0 @ A0.T
    B0 = rng.standard_normal((6, 6))
    B = B0 @ B0.T + 6 * np.eye(6)
    P = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    p1 = gen_eig(A, B, 3)
    p2 = gen_eig(P.T @ A @ P, P.T @ B @ P, 3)
    npt.assert_allclose(p1.values, p2.values, rtol=1e-8)
    mapped = P @ p2.vectors
    mapped /= np.linalg.norm(mapped, axis=0)
    npt.assert_allclose(np.abs(np.sum(mapped * p1.vectors, axis=0)), np.ones(3), atol=1e-8)


def test_gen_eig_explicit_ridge():
    pairs = gen_eig(np.eye(2), np.zeros((2, 2)), 2, ridge=0.5)
    npt.assert_allclose(pairs.values, [2.0, 2.0], atol=1e-12)


def test_gen_eig_errors():
    # a rotation has a complex spectrum; it is rejected as nonsymmetric
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(InvalidInput, match="symmetric"):
        gen_eig(rot, np.eye(2), 2)
    with pytest.raises(InvalidInput, match="symmetric"):
        gen_eig(np.eye(2), rot + 3 * np.eye(2), 1)
    with pytest.raises(SingularMatrix, match="positive definite"):
        gen_eig(np.eye(2), -np.eye(2), 1)
    with pytest.raises(InvalidInput):
        gen_eig(np.eye(2), np.eye(3), 1)
    with pytest.raises(InvalidInput):
        gen_eig(np.eye(2), np.eye(2), 0)
    nan = np.full((2, 2), np.nan)
    with pytest.raises(SingularMatrix):
        gen_eig(nan, np.eye(2), 1)


def _lowrank_pencil(rng, r):
    return rng.random(r), rng.standard_normal((2, r)), rng.standard_normal((3, r))


def test_lowrank_gen_eig_small_or_nearly_full_is_the_assembled_gen_eig():
    rng = np.random.default_rng(5)
    for r, m in ((6, 2), (300, 299)):
        d, Ya, Yb = _lowrank_pencil(rng, r)
        got = lowrank_gen_eig(d, Ya, Yb, m, 0.1)
        ref = gen_eig(Ya.T @ Ya + np.diag(d), Yb.T @ Yb + np.diag(d), m, ridge=0.1)
        npt.assert_array_equal(got.values, ref.values)
        npt.assert_array_equal(got.vectors, ref.vectors)


def test_lowrank_gen_eig_errors(monkeypatch):
    d, Ya, Yb = _lowrank_pencil(np.random.default_rng(6), 5)
    with pytest.raises(InvalidInput, match="columns"):
        lowrank_gen_eig(d, Ya[:, :4], Yb, 1, 0.1)
    with pytest.raises(InvalidInput, match="columns"):
        lowrank_gen_eig(d, Ya, Yb[:, :4], 1, 0.1)
    with pytest.raises(InvalidInput, match="m must be"):
        lowrank_gen_eig(d, Ya, None, 6, 0.1)
    monkeypatch.setattr(linalg, "_DENSE_MAX_ORDER", 0)
    with pytest.raises(SingularMatrix, match="non-finite"):
        lowrank_gen_eig(d, Ya, np.full_like(Yb, np.nan), 1, 0.1)
    with pytest.raises(SingularMatrix, match="positive definite"):
        lowrank_gen_eig(d, Ya, Yb, 1, -d.max())


def test_positive_eig_keeps_numerical_range():
    pairs = positive_eig(np.diag([4.0, 0.0, 1e-13, 2.0, -1e-15]))
    npt.assert_allclose(pairs.values, [4.0, 2.0])
    npt.assert_allclose(np.abs(pairs.vectors), np.eye(5)[:, [0, 3]], atol=1e-14)
    # the threshold is relative to max(largest, 1)
    assert len(positive_eig(np.diag([1e-11, 1e-13])).values) == 1


def test_ridge_inverse():
    npt.assert_allclose(ridge_inverse(np.eye(3), 0.0), np.eye(3), atol=1e-14)
    npt.assert_allclose(ridge_inverse(np.diag([2.0, 4.0]), 0.0),
                        np.diag([0.5, 0.25]), atol=1e-14)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4))
    W = A @ A.T + np.eye(4)
    inv = ridge_inverse(W, 1e-10)
    assert np.linalg.norm(W @ inv - np.eye(4), "fro") <= 1e-6


def test_principal_angles():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    diag = np.array([[1.0], [1.0]])
    I2 = np.eye(2)
    npt.assert_allclose(principal_angles(e1, e1, I2), [0.0], atol=1e-12)
    npt.assert_allclose(principal_angles(e1, e2, I2), [np.pi / 2], atol=1e-12)
    npt.assert_allclose(principal_angles(diag, e1, I2), [np.pi / 4], atol=1e-12)

    with pytest.raises(RankDeficient):
        principal_angles(np.zeros((2, 1)), e1, I2)
    with pytest.raises(InvalidInput):
        principal_angles(e1, np.ones((3, 1)), I2)
