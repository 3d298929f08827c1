import json
import os
import subprocess
import sys
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from conftest import independent_per_rep
from scipy.sparse.linalg import ArpackNoConvergence

import covmin
from covmin import (
    CovminError,
    ExperimentConfig,
    InvalidInput,
    RankDeficientWarning,
    UndefinedMetric,
    krr_fit,
    metric_accuracy,
    metric_auc,
    metric_gmean,
    metric_rmse,
    predict_labels,
    run_experiment,
)
from covmin import evaluate
from covmin.evaluate import _average_ranks, gmean_from_labels


def test_rmse_values():
    assert metric_rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_rmse([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert metric_rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(25.0 / 2.0))
    with pytest.raises(InvalidInput):
        metric_rmse([1.0], [1.0, 2.0])


def test_accuracy_values():
    assert metric_accuracy([1, -1, 1], [1, -1, 1]) == 1.0
    assert metric_accuracy([1, -1, 1, -1], [1, 1, 1, 1]) == 0.5
    with pytest.raises(InvalidInput):
        metric_accuracy([], [])


def test_gmean_values():
    assert metric_gmean(5, 0, 5, 0) == 1.0
    assert metric_gmean(0, 4, 3, 1) == 0.0
    assert metric_gmean(3, 1, 2, 2) == pytest.approx(np.sqrt(0.75 * 0.5))
    with pytest.raises(UndefinedMetric):
        metric_gmean(0, 0, 3, 1)
    assert gmean_from_labels([1, 1, -1, -1], [1, -1, 1, -1]) == pytest.approx(0.5)


def test_auc_values():
    assert metric_auc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0
    assert metric_auc([0.5, 0.5, 0.5, 0.5], [1, -1, 1, -1]) == 0.5
    assert metric_auc([0.9, 0.4, 0.6, 0.1], [1, -1, 1, -1]) == 1.0
    assert metric_auc([0.9, 0.8, 0.7, 0.6], [1, -1, 1, -1]) == pytest.approx(0.75)
    with pytest.raises(UndefinedMetric):
        metric_auc([0.1, 0.2], [1, 1])


def _auc_pair_count(scores, labels):
    s = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) > 0
    wins = 0.0
    total = 0
    for i in np.flatnonzero(pos):
        for j in np.flatnonzero(~pos):
            total += 1
            if s[i] > s[j]:
                wins += 1.0
            elif s[i] == s[j]:
                wins += 0.5
    return wins / total


def test_auc_against_pair_count_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.standard_normal(n), 1)  # rounding injects ties
        labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        if len(np.unique(labels)) < 2:
            continue
        assert metric_auc(scores, labels) == pytest.approx(
            _auc_pair_count(scores, labels), abs=1e-12)



def test_average_ranks_match_rankdata():
    from scipy.stats import rankdata
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        s = rng.integers(0, int(rng.integers(1, 8)), n) * rng.choice([1.0, -0.3, 1e-300])
        npt.assert_array_equal(_average_ranks(s), rankdata(s))


def test_auc_of_a_nan_score_is_nan():
    assert np.isnan(metric_auc([0.9, np.nan, 0.2, 0.1], [1, 1, -1, -1]))


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats took most of the package's import time
    src = os.path.dirname(os.path.dirname(covmin.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, covmin; assert 'scipy.stats' not in sys.modules, 'loaded'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_predict_labels_boundary():
    npt.assert_array_equal(predict_labels(np.array([-0.1, 0.0, 0.2])), [-1.0, 1.0, 1.0])


def test_krr_recovers_linear_rule():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((2, 60))
    y = 2.0 * F[0] - 1.0 * F[1] + 3.0
    pred = krr_fit(F, y, 1e-8)
    npt.assert_allclose(pred.weights, [2.0, -1.0], atol=1e-6)
    npt.assert_allclose(pred.predict(F), y, atol=1e-6)


def test_krr_separable_toy_and_shrinkage():
    F = np.array([[-2.0, -1.5, 1.5, 2.0]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    pred = krr_fit(F, y, 1e-4)
    assert metric_accuracy(predict_labels(pred.predict(F)), y) == 1.0

    heavy = krr_fit(F, y, 1e12)
    npt.assert_allclose(heavy.predict(F), np.full(4, y.mean()), atol=1e-6)


def test_krr_degenerate_features_warn():
    F = np.vstack([np.arange(5.0), np.arange(5.0)])  # rank 1
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    with pytest.warns(RankDeficientWarning):
        pred = krr_fit(F, y, 0.1)
    assert np.all(np.isfinite(pred.weights))


def test_krr_validation():
    with pytest.raises(InvalidInput):
        krr_fit(np.ones((2, 3)), np.ones(4), 0.1)
    with pytest.raises(InvalidInput):
        krr_fit(np.ones((2, 3)), np.ones(3), 0.0)
    for F, y in ((np.zeros((0, 4)), np.ones(4)), (np.zeros((2, 0)), np.zeros(0))):
        with pytest.raises(InvalidInput, match="not empty"):
            krr_fit(F, y, 0.1)


@pytest.mark.parametrize("value", [1e200, np.inf, np.nan])
def test_krr_rejects_non_finite_or_overflowing_features(value):
    """Huge features would overflow the normal matrix into a wrong
    predictor; inf and NaN would run the ridge escalation in vain. All three
    raise InvalidInput up front, with no warning, and so do non-finite
    targets."""
    F = np.array([[0.0, value, 1.0, 2.0]])
    y = np.array([1.0, -1.0, 1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            krr_fit(F, y, 0.1)
        if not np.isfinite(value):
            with pytest.raises(InvalidInput, match="finite"):
                krr_fit(y[None, :], F[0], 0.1)


def _tiny_config(**kw):
    base = dict(algorithms=("kpca", "baseline"), reps=2, seed=7, T=5,
                mean_count=12, train_domains=3, m=2, M=10)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_structure():
    report = run_experiment(_tiny_config())
    assert report.seeds == [7, 8]
    for alg in ("kpca", "baseline"):
        assert len(report.per_rep[alg]["accuracy"]) == 2
        mu, sd = report.metrics[alg]["accuracy"]
        assert 0.0 <= mu <= 1.0 and sd >= 0.0
        assert report.timings[alg]["fit"] > 0.0
    payload = json.loads(report.to_json())
    assert payload["config"]["reps"] == 2
    assert "kpca" in report.to_text()
    csv_lines = report.per_rep_csv().strip().splitlines()
    assert csv_lines[0] == "algorithm,rep,seed,metric,value"
    # 2 algorithms x 3 metrics x 2 reps
    assert len(csv_lines) == 1 + 12


def test_run_experiment_single_rep_std_zero():
    report = run_experiment(_tiny_config(reps=1))
    for alg in report.metrics:
        for _, sd in report.metrics[alg].values():
            assert sd == 0.0


def test_run_experiment_deterministic():
    a = run_experiment(_tiny_config())
    b = run_experiment(_tiny_config())
    # timings differ run to run; the scored results must not
    assert a.per_rep == b.per_rep
    assert a.metrics == b.metrics
    assert a.seeds == b.seeds


def test_run_experiment_validates_algorithms():
    with pytest.raises(InvalidInput):
        run_experiment(_tiny_config(algorithms=("svm",)))


def test_run_experiment_rejects_seeds_past_the_uint64_range(monkeypatch):
    """The last repetition's seed must fit the uint64 Philox key, and the
    check comes before any repetition generates data."""
    monkeypatch.setattr(evaluate, "synth_generate", None)
    for seed, reps in ((2**64 - 1, 2), (2**64 - 3, 4), (-1, 1)):
        with pytest.raises(InvalidInput, match=r"2\*\*64"):
            run_experiment(_tiny_config(seed=seed, reps=reps))


def test_run_experiment_tags_failing_repetition(monkeypatch):
    cfg = _tiny_config(algorithms=("fastdcm",), M=10_000)
    with pytest.raises(InvalidInput, match=r"repetition 0 \(seed 7\)") as info:
        run_experiment(cfg)
    assert isinstance(info.value.__cause__, InvalidInput)

    # a constructor that takes more than a message: tagged as a CovminError
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((3, 0)))

    monkeypatch.setattr(covmin.dcm, "fit_kpca", no_convergence)
    with pytest.raises(CovminError,
                       match=r"repetition 0 \(seed 7\), algorithm kpca: .*no convergence") as info:
        run_experiment(_tiny_config())
    assert isinstance(info.value.__cause__, ArpackNoConvergence)


def test_run_experiment_factors_each_split_once(monkeypatch):
    cfg = _tiny_config(algorithms=("dcm", "coir", "kpca", "baseline", "fastdcm"))
    calls = []
    real = covmin.dcm.factored_sym_eig

    def counted(S, tol=None):
        calls.append(S.shape)
        return real(S, tol)

    monkeypatch.setattr(covmin.dcm, "factored_sym_eig", counted)
    report = run_experiment(cfg)
    monkeypatch.undo()
    assert len(calls) == cfg.reps == 2
    assert report.per_rep == independent_per_rep(cfg)


def test_run_experiment_continuous_labels():
    report = run_experiment(_tiny_config(label_kind="continuous", reps=1))
    for alg in report.metrics:
        assert set(report.metrics[alg]) == {"rmse"}
        assert report.metrics[alg]["rmse"][0] >= 0.0
