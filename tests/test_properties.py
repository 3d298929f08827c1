"""Property tests of the dense fit against the N x N oracle pencil.

Each example draws a small dataset (N 8-60, 1-3 classes, 1-4 domains,
sometimes a real-valued output with an RBF output kernel) and checks the
fitted eigenpairs against solved_pencil, which assembles the pencil with
explicit solves and never calls the package's solver.
"""
import numpy as np
import numpy.testing as npt
import scipy.linalg as sla
from conftest import build_bundle, solved_pencil
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covmin import DataSet, KernelSpec, fit_coir, fit_dcm, transform

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


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_row_permutation_leaves_transform_unchanged(problem, perm_seed):
    data, spec_y, epsilon = problem
    # the retained directions are only defined up to rotation within a
    # (near-)tied eigenvalue cluster
    vals = _top_values(*_oracle(data, spec_y, epsilon), M + 1)
    assume(np.min(-np.diff(vals)) > 1e-6 * vals[0])
    perm = np.random.default_rng(perm_seed).permutation(len(data))
    shuffled = DataSet(X=data.X[perm], y=data.y[perm], d=data.d[perm])
    a = fit_dcm(data, RBF, epsilon, M, spec_y=spec_y)
    b = fit_dcm(shuffled, RBF, epsilon, M, spec_y=spec_y)
    Q = data.X[:5] + 0.1
    npt.assert_allclose(transform(a, Q), transform(b, Q), atol=1e-8)
