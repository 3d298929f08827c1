"""End-to-end acceptance suite.

Each test exercises one release criterion and reports a single pass/fail
line (echoed in the terminal summary). Tolerances and time budgets are
part of the criteria and are asserted, not just logged.
"""
import time

import numpy as np
import numpy.testing as npt
from conftest import build_bundle, principal_angles, solved_pencil

from covmin import (
    DataSet,
    ExperimentConfig,
    KernelSpec,
    SynthConfig,
    build_sketch,
    fit_coir,
    fit_dcm,
    fit_fastdcm,
    load_model,
    metric_auc,
    metric_gmean,
    metric_rmse,
    run_experiment,
    sample_landmarks,
    save_csv,
    save_model,
    synth_generate,
    transform,
)
from covmin.cli import main as cli_main
from covmin.kernels import center_gram, gram

RBF = KernelSpec("rbf", 0.5)


def test_criterion_1_eigen_residuals(criterion):
    """Retained eigenpairs satisfy the solved pencil to 1e-8, 50 seeds."""
    t0 = time.perf_counter()
    eps = 1e-3
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(20, 101))
        X = rng.standard_normal((N, 4))
        y = np.where(rng.standard_normal(N) >= 0, 1.0, -1.0)
        d = rng.integers(1, 4, size=N)
        data = DataSet(X=X, y=y, d=d)
        model = fit_dcm(data, RBF, eps, 3)
        A, B = solved_pencil(*build_bundle(X, y, d, RBF), eps)
        for k in range(3):
            v = model.coefficients[:, k]
            lam = model.eigenvalues[k]
            resid = np.linalg.norm(A @ v - lam * B @ v)
            bound = np.linalg.norm(A, "fro") + abs(lam) * np.linalg.norm(B, "fro")
            worst = max(worst, resid / bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    criterion(1, ok, f"worst scaled residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_fast_path_exact_recovery(criterion):
    """Full-sampling fast fit matches the dense solver to 1e-4 angles."""
    t0 = time.perf_counter()
    data = synth_generate(SynthConfig(T=10, mean_count=25, seed=42))
    N = len(data)
    assert N <= 300
    dense = fit_dcm(data, RBF, 1e-3, 3)
    fast = fit_fastdcm(data, RBF, 1e-3, 3, N, 0)
    Kc = center_gram(gram(RBF, data.X))
    angles = principal_angles(dense.coefficients, fast.coefficients, Kc)
    elapsed = time.perf_counter() - t0
    ok = bool(np.max(angles) <= 1e-4) and elapsed < 60.0
    criterion(2, ok, f"N={N}, max angle {np.max(angles):.2e}, {elapsed:.1f}s")


def test_criterion_3_degeneracies(criterion):
    data = synth_generate(SynthConfig(T=1, mean_count=80, seed=4))
    a = fit_dcm(data, RBF, 1e-3, 3)
    b = fit_coir(data, RBF, 1e-3, 3)
    Kc = center_gram(gram(RBF, data.X))
    angle = float(np.max(principal_angles(a.coefficients, b.coefficients, Kc)))

    flat = DataSet(X=data.X, y=np.ones(len(data)), d=data.d)
    unit = fit_coir(flat, RBF, 1e-10, 5)
    dev = float(np.abs(unit.eigenvalues - 1.0).max())

    ok = angle <= 1e-6 and dev <= 1e-8
    criterion(3, ok, f"dcm/coir angle {angle:.2e}, |eig-1| {dev:.2e}")


def test_criterion_4_synthetic_ordering(criterion):
    """20-rep protocol: projected fit beats the raw-kernel baseline."""
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig())
    acc = {alg: 100.0 * report.metrics[alg]["accuracy"][0]
           for alg in ("dcm", "coir", "baseline")}
    elapsed = time.perf_counter() - t0
    gap = acc["dcm"] - acc["baseline"]
    ok = gap >= 2.0 and acc["dcm"] >= acc["coir"] - 1.0 and elapsed < 300.0
    criterion(4, ok, (f"dcm {acc['dcm']:.2f}, coir {acc['coir']:.2f}, "
                      f"baseline {acc['baseline']:.2f}, gap {gap:+.2f}, {elapsed:.0f}s"))


def test_criterion_5_scaling(criterion, tmp_path):
    """Near-linear fast-path scaling in N; dense at N=4000 is 5x slower."""
    t0 = time.perf_counter()
    fast_csv = str(tmp_path / "fast.csv")
    dense_csv = str(tmp_path / "dense.csv")
    assert cli_main(["bench", "--sizes", "1000,2000,4000,8000", "--M", "50",
                     "--compare", "fastdcm", "--seed", "0",
                     "--output", fast_csv]) == 0
    assert cli_main(["bench", "--sizes", "4000", "--M", "50",
                     "--compare", "dcm", "--seed", "0",
                     "--output", dense_csv]) == 0

    fast_rows = [line.split(",") for line in open(fast_csv).read().strip().splitlines()[1:]]
    Ns = np.array([float(r[0]) for r in fast_rows])
    ts = np.array([float(r[3]) for r in fast_rows])
    slope = float(np.polyfit(np.log(Ns), np.log(ts), 1)[0])

    dense_row = open(dense_csv).read().strip().splitlines()[1].split(",")
    dense_t = float(dense_row[3])
    fast_at_4000 = float(ts[np.argmin(np.abs(Ns - 4000))])
    speedup = dense_t / fast_at_4000
    elapsed = time.perf_counter() - t0
    ok = slope <= 1.4 and speedup >= 5.0 and elapsed < 600.0
    criterion(5, ok, (f"slope {slope:.2f}, dense {dense_t:.1f}s vs fast "
                      f"{fast_at_4000:.3f}s ({speedup:.0f}x), {elapsed:.0f}s"))


def test_criterion_6_nystrom_quality(criterion):
    """Median reconstruction error is non-increasing in the landmark count."""
    data = synth_generate(SynthConfig(T=10, mean_count=40, seed=1))
    N = len(data)
    Kc = center_gram(gram(RBF, data.X))
    medians = []
    for M in (10, 20, 40, 80):
        errs = []
        for seed in range(11):
            sk = build_sketch(data, RBF, sample_landmarks(N, M, seed))
            errs.append(np.linalg.norm(Kc - sk.Cx @ sk.Wt_x @ sk.Cx.T, "fro"))
        medians.append(float(np.median(errs)))
    ok = all(b <= a for a, b in zip(medians, medians[1:]))
    criterion(6, ok, "medians " + ", ".join(f"{v:.2f}" for v in medians))


def test_criterion_7_metric_suite(criterion):
    checks = [
        abs(metric_rmse([0.0, 0.0], [3.0, 4.0]) - np.sqrt(25.0 / 2.0)) < 1e-12,
        abs(metric_gmean(3, 1, 2, 2) - np.sqrt(0.75 * 0.5)) < 1e-12,
        metric_auc([0.9, 0.4, 0.6, 0.1], [1, -1, 1, -1]) == 1.0,
        metric_auc([0.5, 0.5], [1, -1]) == 0.5,
    ]
    rng = np.random.default_rng(123)
    tested = 0
    worst = 0.0
    while tested < 200:
        n = int(rng.integers(4, 40))
        scores = np.round(rng.standard_normal(n), 1)
        labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        if len(np.unique(labels)) < 2:
            continue
        tested += 1
        pos = labels > 0
        wins = 0.0
        for i in np.flatnonzero(pos):
            gt = scores[i] > scores[~pos]
            eq = scores[i] == scores[~pos]
            wins += gt.sum() + 0.5 * eq.sum()
        oracle = wins / (pos.sum() * (~pos).sum())
        worst = max(worst, abs(metric_auc(scores, labels) - oracle))
    ok = all(checks) and worst <= 1e-12
    criterion(7, ok, f"analytic values exact, auc vs pair-count max dev {worst:.1e}")


def test_criterion_8_determinism_and_round_trip(criterion, tmp_path):
    # byte-identical synthetic output per seed
    cfg = SynthConfig(seed=0)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_csv(synth_generate(cfg), p1)
    save_csv(synth_generate(SynthConfig(seed=0)), p2)
    bytes_ok = open(p1, "rb").read() == open(p2, "rb").read()

    # serialize / deserialize leaves projections unchanged within 1e-10
    data = synth_generate(SynthConfig(T=5, mean_count=30, seed=17))
    model = fit_fastdcm(data, RBF, 1e-3, 3, 40, 0)
    mp = str(tmp_path / "m.bin")
    save_model(model, mp)
    back = load_model(mp)
    Q = data.X[::3] + 0.25
    round_trip_dev = float(np.abs(transform(back, Q) - transform(model, Q)).max())

    # permutation equivariance over 10 seeds
    perm_dev = 0.0
    for seed in range(10):
        base = synth_generate(SynthConfig(T=4, mean_count=15, seed=30 + seed))
        perm = np.random.default_rng(seed).permutation(len(base))
        shuffled = DataSet(X=base.X[perm], y=base.y[perm], d=base.d[perm])
        m1 = fit_dcm(base, RBF, 1e-3, 3)
        m2 = fit_dcm(shuffled, RBF, 1e-3, 3)
        Q = base.X[:8] + 0.1
        perm_dev = max(perm_dev, float(np.abs(transform(m1, Q) - transform(m2, Q)).max()))
        npt.assert_allclose(m1.eigenvalues, m2.eigenvalues, atol=1e-8)

    ok = bytes_ok and round_trip_dev <= 1e-10 and perm_dev <= 1e-6
    criterion(8, ok, (f"bytes identical {bytes_ok}, round-trip dev {round_trip_dev:.1e}, "
                      f"permutation dev {perm_dev:.1e}"))
