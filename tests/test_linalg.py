import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from conftest import principal_angles

from covmin import InvalidInput, SingularMatrix, linalg
from covmin.errors import RankDeficient
from covmin.kernels import KernelSpec, center_gram, gram
from covmin.linalg import factored_sym_eig, gen_eig, lowrank_gen_eig, ridge_inverse, sym_eig


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


def test_sym_eig_keeps_an_exactly_symmetric_input():
    """An exactly symmetric matrix is used as given, an asymmetric one
    within tolerance is averaged with its transpose, and an empty one has
    no pairs."""
    S = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert linalg._require_symmetric(S) is S
    A = S.copy()
    A[0, 1] += 1e-12
    npt.assert_array_equal(linalg._require_symmetric(A), 0.5 * (A + A.T))
    for tol in (None, 1e-10):
        pairs = sym_eig(np.zeros((0, 0)), tol=tol)
        assert pairs.values.shape == (0,) and pairs.vectors.shape == (0, 0)


def _eigh_reference(S, tol):
    """np.linalg.eigh's pairs, descending, cut as factored_sym_eig cuts."""
    w, V = np.linalg.eigh(S)
    w, V = w[::-1], V[:, ::-1]
    if tol is not None:
        keep = w > tol * w.max(initial=1.0)
        w, V = w[keep], V[:, keep]
    return w, V


def _repeated_rows_gram():
    """A centered RBF Gram of 4 distinct rows repeated 3 times: rank 3 of 12."""
    X = np.repeat(np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0], [2.0, -1.5]]), 3, axis=0)
    return center_gram(gram(KernelSpec("rbf", 0.5), X))


def _random_gram(N):
    A = np.random.default_rng(N).standard_normal((N, N))
    return A @ A.T  # a SYRK: exactly symmetric


@pytest.mark.parametrize("N", [1, 2, 3, 40])
def test_factored_basis_is_an_eigenbasis(N):
    """On random Grams, whose small eigenvalues lie close together, the
    basis is checked by residual and orthonormality, not against another
    solver's vectors: it holds all N columns, so expand(project(F)) = F."""
    S = _random_gram(N)
    values, basis = factored_sym_eig(S.copy(), 1e-12)
    eps, norm = np.finfo(float).eps, np.abs(values).max()
    npt.assert_allclose(values, _eigh_reference(S, None)[0], rtol=0, atol=N * eps * norm)
    assert np.all(np.diff(values) <= 0)
    U = basis.expand(np.eye(N))
    assert np.abs(S @ U - U * values).max() <= 10 * N * eps * norm
    npt.assert_allclose(U.T @ U, np.eye(N), rtol=0, atol=10 * N * eps)
    F = np.random.default_rng(1).standard_normal((N, 3))
    npt.assert_allclose(basis.project(F), U.T @ F, atol=1e-12)
    npt.assert_allclose(basis.expand(basis.project(F)), F, atol=1e-12)


def test_factored_basis_matches_eigh_under_the_tol_cut():
    """On the repeated-rows Gram the kept eigenvalues are well separated, so
    project and expand apply eigh's basis, up to column signs; the tol cut
    drops the null space, so U U^T is a projector and
    expand(project(F)) = U U^T F is not F."""
    S = _repeated_rows_gram()
    N = len(S)
    w, V = _eigh_reference(S, 1e-12)
    values, basis = factored_sym_eig(S.copy(), 1e-12)
    assert len(values) == basis.Z.shape[1] == len(w) < N
    npt.assert_allclose(values, w, rtol=0, atol=1e-13 * w.max())
    U = basis.expand(np.eye(len(w)))
    V = V * np.where(np.sum(U * V, axis=0) < 0, -1.0, 1.0)
    npt.assert_allclose(U, V, atol=1e-12)
    F = np.random.default_rng(1).standard_normal((N, 3))
    npt.assert_allclose(basis.project(F), V.T @ F, atol=1e-12)
    npt.assert_allclose(basis.expand(basis.project(F)), V @ (V.T @ F), atol=1e-12)


def test_factored_sym_eig_reduces_in_the_given_buffer():
    """The reflectors take S's own buffer; project and expand leave their
    arguments unmodified."""
    S = _repeated_rows_gram()
    values, basis = factored_sym_eig(S, 1e-12)
    assert np.shares_memory(basis.reflectors, S)
    F = np.random.default_rng(2).standard_normal((len(S), 2))
    W = np.random.default_rng(3).standard_normal((len(values), 2))
    F0, W0 = F.copy(), W.copy()
    basis.project(F)
    basis.expand(W)
    npt.assert_array_equal(F, F0)
    npt.assert_array_equal(W, W0)


def test_tridiagonal_eig_checks_the_lengths_it_passes_to_lapack():
    d, e = np.array([2.0, 1.0]), np.array([0.5])
    w, Z = linalg._tridiagonal_eig(d.copy(), e.copy())
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    npt.assert_allclose(T @ Z, Z * w, atol=1e-15)
    for bad in (np.array([0.5, 0.5]), np.zeros(0)):
        with pytest.raises(InvalidInput):
            linalg._tridiagonal_eig(d.copy(), bad)


def test_factored_sym_eig_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        factored_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), 1e-12)


@pytest.mark.parametrize("rows, cols", [(10, 10), (5, 700), (5, 1600), (2, 300),
                                        (7, 350), (40, 699)])
def test_gram_products_are_exactly_symmetric(rows, cols):
    """A^T A and A A^T are SYRKs in numpy, exactly symmetric. The code
    takes them as symmetric without averaging: the 10 x 10 Wishart draw
    (datagen.sample_wishart), the m x N centered features of krr_fit, and
    the c x r pencil factors of lowrank_gen_eig, in either memory order."""
    A = np.random.default_rng(rows * cols).standard_normal((rows, cols))
    for A in (A, np.asfortranarray(A)):
        for P in (A.T @ A, A @ A.T):
            npt.assert_array_equal(P, P.T)


# The gen_eig tests drive its one caller, lowrank_gen_eig, on the dense
# route (order at most _DENSE_MAX_ORDER). A PSD pencil A = A0 A0^T,
# B = B0 B0^T + c I enters as factors: d = 0, Ya = A0^T, Yb = B0^T and
# ridge c.


def test_gen_eig_simple_pencils():
    pairs = lowrank_gen_eig(np.zeros(3), np.sqrt(2.0) * np.eye(3), None, 1, 1.0)
    assert pairs.values[0] == pytest.approx(2.0, abs=1e-12)

    pairs = lowrank_gen_eig(np.zeros(2), np.diag([np.sqrt(5.0), 1.0]), None, 1, 1.0)
    assert pairs.values[0] == pytest.approx(5.0, abs=1e-12)
    npt.assert_allclose(np.abs(pairs.vectors[:, 0]), [1.0, 0.0], atol=1e-12)


def test_gen_eig_residuals_scaled():
    rng = np.random.default_rng(1)
    A0 = rng.standard_normal((8, 8))
    B0 = rng.standard_normal((8, 8))
    A = A0 @ A0.T
    B = B0 @ B0.T + 8 * np.eye(8)
    pairs = lowrank_gen_eig(np.zeros(8), A0.T, B0.T, 4, 8.0)
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
    # spectrum, and its eigenvectors are P^-1 times the original ones. Its
    # right side P^T B0 B0^T P + 6 P^T P has the factor [B0^T P; sqrt(6) P]
    # and a ridge of 6 machine epsilons, small enough not to disturb it
    rng = np.random.default_rng(2)
    A0 = rng.standard_normal((6, 6))
    B0 = rng.standard_normal((6, 6))
    P = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    d = np.zeros(6)
    p1 = lowrank_gen_eig(d, A0.T, B0.T, 3, 6.0)
    p2 = lowrank_gen_eig(d, A0.T @ P, np.vstack([B0.T @ P, np.sqrt(6.0) * P]), 3,
                         6 * np.finfo(float).eps)
    npt.assert_allclose(p1.values, p2.values, rtol=1e-8)
    mapped = P @ p2.vectors
    mapped /= np.linalg.norm(mapped, axis=0)
    npt.assert_allclose(np.abs(np.sum(mapped * p1.vectors, axis=0)), np.ones(3), atol=1e-8)


def test_gen_eig_explicit_ridge():
    pairs = lowrank_gen_eig(np.zeros(2), np.eye(2), None, 2, 0.5)
    npt.assert_allclose(pairs.values, [2.0, 2.0], atol=1e-12)


def test_gen_eig_errors():
    d, I2 = np.zeros(2), np.eye(2)
    with pytest.raises(SingularMatrix, match="positive definite"):
        lowrank_gen_eig(d, I2, None, 1, -1.0)
    with pytest.raises(InvalidInput, match="columns"):
        lowrank_gen_eig(d, I2, np.eye(3), 1, 1.0)
    with pytest.raises(InvalidInput, match="m must be"):
        lowrank_gen_eig(d, I2, I2, 0, 1.0)
    # non-finite factors are rejected before the route is chosen, so on
    # the dense route too
    nan = np.full((2, 2), np.nan)
    for Ya, Yb, ridge in ((nan, I2, 1.0), (I2, nan, 1.0), (I2, None, np.inf)):
        with pytest.raises(SingularMatrix, match="non-finite"):
            lowrank_gen_eig(d, Ya, Yb, 1, ridge)


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


def test_sym_eig_tol_keeps_numerical_range():
    pairs = sym_eig(np.diag([4.0, 0.0, 1e-13, 2.0, -1e-15]), tol=1e-12)
    npt.assert_allclose(pairs.values, [4.0, 2.0])
    npt.assert_allclose(np.abs(pairs.vectors), np.eye(5)[:, [0, 3]], atol=1e-14)
    # the threshold is relative to max(largest, 1)
    assert len(sym_eig(np.diag([1e-11, 1e-13]), tol=1e-12).values) == 1


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
