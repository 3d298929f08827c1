"""Shared fixtures, plus reference implementations the tests compare the
package against (they are not part of the package API)."""
import numpy as np
import pytest

from covmin import DataSet, InvalidInput, KernelSpec, SynthConfig, build_operator_pair, synth_generate
from covmin.errors import RankDeficient
from covmin.kernels import DELTA, center_gram, gram
from covmin.linalg import _require_symmetric

# pass/fail lines recorded by the acceptance suite, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion():
    def record(num, ok, detail):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def rbf():
    return KernelSpec("rbf", 0.5)


@pytest.fixture
def small_data():
    """Roughly 90 points over 6 domains, fast enough for dense fits."""
    return synth_generate(SynthConfig(T=6, mean_count=15, seed=11))


@pytest.fixture
def single_domain_data():
    d = synth_generate(SynthConfig(T=1, mean_count=60, seed=4))
    assert len(np.unique(d.d)) == 1
    return d


def random_dataset(rng, N, n=4, domains=3):
    X = rng.standard_normal((N, n))
    y = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0)
    d = rng.integers(1, domains + 1, size=N)
    return DataSet(X=X, y=y, d=d)


def eval_kernel(spec: KernelSpec, a, b) -> float:
    """Evaluate the kernel on a single pair."""
    if spec.kind == DELTA:
        return 1.0 if a == b else 0.0
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.shape != bv.shape:
        raise InvalidInput(f"rbf operands differ in length: {av.shape} vs {bv.shape}")
    diff = av - bv
    return float(np.exp(-spec.gamma * float(diff @ diff)))


def build_bundle(
    X,
    y,
    d,
    spec_x: KernelSpec,
    spec_y: KernelSpec | None = None,
    spec_d: KernelSpec | None = None,
):
    """The three centered training Grams (inputs, outputs, domains).

    spec_y defaults to delta for discrete outputs; pass an RBF spec for
    continuous outputs (median_gamma provides a bandwidth). spec_d
    defaults to delta.
    """
    spec_y = spec_y or KernelSpec(DELTA)
    spec_d = spec_d or KernelSpec(DELTA)
    Kx = gram(spec_x, X)
    Ky = gram(spec_y, y)
    Kd = gram(spec_d, d)
    return center_gram(Kx), center_gram(Ky), center_gram(Kd)


def solved_pencil(Kx, Ky, Kd, epsilon: float):
    """The exact pencil handed to the eigensolver: (Kx A, Kx B + N eps I).

    Lets tests verify eigenpair residuals against what was actually
    solved.
    """
    A, B = build_operator_pair(Kx, Ky, Kd, epsilon)
    N = Kx.shape[0]
    return Kx @ A, Kx @ B + (N * epsilon) * np.eye(N)


def _metric_orthonormalize(Bmat: np.ndarray, metric_sqrt: np.ndarray) -> np.ndarray:
    Y = metric_sqrt @ Bmat
    Q, R = np.linalg.qr(Y)
    diag = np.abs(np.diag(R))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise RankDeficient("columns are dependent under the metric inner product")
    return Q


def principal_angles(B1: np.ndarray, B2: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Principal angles between two column spans under a PSD metric.

    Columns are orthonormalized with respect to <u, v> = u^T metric v,
    then the angles are the arccosines of the singular values of the
    orthonormal cross product. Result is in [0, pi/2], length m.
    """
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape:
        raise InvalidInput("subspace bases must share a shape")
    Msym = _require_symmetric(metric)
    w, U = np.linalg.eigh(Msym)
    w = np.clip(w, 0.0, None)
    metric_sqrt = (U * np.sqrt(w)[None, :]) @ U.T
    Q1 = _metric_orthonormalize(B1, metric_sqrt)
    Q2 = _metric_orthonormalize(B2, metric_sqrt)
    s = np.linalg.svd(Q1.T @ Q2, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))
