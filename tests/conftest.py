"""Shared fixtures, plus reference implementations the tests compare the
package against (they are not part of the package API)."""
import numpy as np
import pytest

from covmin import (
    DataSet,
    InvalidInput,
    KernelSpec,
    SynthConfig,
    krr_fit,
    metric_accuracy,
    metric_auc,
    metric_rmse,
    predict_labels,
    split_domains,
    synth_generate,
    transform,
)
from covmin.errors import RankDeficient, UndefinedMetric
from covmin.evaluate import FITTERS, _split_stream, gmean_from_labels, resolve_spec_y
from covmin.kernels import (
    DELTA,
    center_cross_from_means,
    center_gram,
    centered_gram,
    cross_gram,
    gram,
)
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


def unfused_transform(model, Z) -> np.ndarray:
    """transform as the formula reads: the full N x N_T cross-Gram,
    centered against the training row means, then the coefficients."""
    Kz = cross_gram(model.spec_x, model.train_X, np.asarray(Z, dtype=float))
    return model.coefficients.T @ center_cross_from_means(Kz, model.row_means)


def sketch_blocks(data, idx, spec_x, spec_y=None, spec_d=None) -> dict:
    """The sketch as the formulas read, from the N x M landmark columns
    C = cross_gram(spec, values, values[idx]) of each side: the input's
    landmark block Wx = C_x[idx] and Sxx = (H C_x)^T (H C_x), and for
    every side k the centered jittered Nystrom kernel
    K_k = H C (W + jI)^-1 C^T H with W = C[idx], j = 1e-10 trace(W) / M,
    an explicit centering matrix H and an explicit inverse. spec_y and
    spec_d default to delta."""
    idx = np.asarray(idx)
    N, M = len(data), len(idx)
    H = np.eye(N) - np.full((N, N), 1.0 / N)
    sides = {"x": (spec_x, data.X),
             "y": (spec_y or KernelSpec(DELTA), data.y),
             "d": (spec_d or KernelSpec(DELTA), data.d)}
    blocks = {}
    for k, (spec, values) in sides.items():
        C = cross_gram(spec, values, values[idx])
        W = C[idx]
        blocks[f"K{k}"] = H @ C @ np.linalg.solve(W + 1e-10 * np.trace(W) / M * np.eye(M), C.T) @ H
        if k == "x":
            blocks["Wx"], blocks["Sxx"] = W, (H @ C).T @ (H @ C)
    return blocks


def independent_per_rep(cfg) -> dict:
    """run_experiment's per_rep with every algorithm fitted on its own: each
    dense fit builds its own input factor, and the baseline solves the
    N x N dual system (Kx + lam I) alpha = y - mean(y) directly."""
    spec_x = KernelSpec("rbf", cfg.gamma)
    per_rep = {alg: {} for alg in cfg.algorithms}
    for seed in range(cfg.seed, cfg.seed + cfg.reps):
        data = synth_generate(SynthConfig(T=cfg.T, n=cfg.n, eta=cfg.eta,
                                          mean_count=cfg.mean_count, seed=seed))
        order = _split_stream(seed).permutation(np.unique(data.d))
        train, test = split_domains(data, order[: cfg.train_domains])
        for alg in cfg.algorithms:
            if alg == "baseline":
                Kx, row_means = centered_gram(spec_x, train.X)
                ym = float(train.y.mean())
                alpha = np.linalg.solve(Kx + cfg.lam * np.eye(len(train)), train.y - ym)
                Kz = center_cross_from_means(cross_gram(spec_x, train.X, test.X), row_means)
                scores = Kz.T @ alpha + ym
            else:
                model = FITTERS[alg](train, spec_x, resolve_spec_y(cfg, train.y), cfg)
                predictor = krr_fit(transform(model, train.X), train.y, cfg.lam)
                scores = predictor.predict(transform(model, test.X))
            if cfg.label_kind == "continuous":
                scored = {"rmse": metric_rmse(scores, test.y)}
            else:
                labels = predict_labels(scores)
                scored = {"accuracy": metric_accuracy(labels, test.y)}
                try:
                    scored["auc"] = metric_auc(scores, test.y)
                    scored["gmean"] = gmean_from_labels(labels, test.y)
                except UndefinedMetric:
                    pass
            for name, value in scored.items():
                per_rep[alg].setdefault(name, []).append(value)
    return per_rep


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
    """The fit's N x N pencil (P, Q), assembled here from the centered
    Grams with explicit solves, independently of the package's solver:

      A = Ky (Ky + N eps I)^-1 Kx Kx + Kx,  B = Kd (Kd + N eps I)^-1 Kx Kx + Kx,
      P = Kx A,  Q = Kx B + N eps I.

    A fitted model's eigenpairs (eigenvalues, coefficient columns) satisfy
    P v = lambda Q v.
    """
    N = Kx.shape[0]
    ridge = N * epsilon * np.eye(N)
    KxKx = Kx @ Kx
    A = Ky @ np.linalg.solve(Ky + ridge, KxKx) + Kx
    B = Kd @ np.linalg.solve(Kd + ridge, KxKx) + Kx
    return Kx @ A, Kx @ B + ridge


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
