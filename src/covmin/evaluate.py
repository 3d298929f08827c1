"""Downstream prediction, metrics, and the repeated-experiment runner.

The downstream learner is linear ridge regression on projected features
with an unpenalized intercept (kernel ridge in the projected space, where
the kernel is linear). The unprojected baseline solves the standard dual
kernel-ridge system on the centered training Gram. Classification
thresholds scores at zero on +-1 targets.

run_experiment factorizes the centered input Gram once per split
(dcm.kernel_factor): dcm, coir, kpca and the baseline all use that one
eigendecomposition, and the baseline solves its dual system in it.
"""
from __future__ import annotations

import functools
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dcm, fastpath
from .datagen import SynthConfig, split_domains, synth_generate
from .errors import CovminError, InvalidInput, RankDeficientWarning, UndefinedMetric
from .kernels import (
    DELTA,
    RBF,
    KernelSpec,
    center_cross_from_means,
    cross_gram,
    median_gamma,
)


def _no_factor():
    return None


# name -> fit of a ProjectionModel. p is any object carrying epsilon, m, M
# and seed (the CLI namespace or an ExperimentConfig). factor() gives the
# dcm.KernelFactor of data.X, or None for a fit that builds its own; only
# the dense fits call it, so a split's factor is built only when one of
# them runs. The fit functions are looked up on their modules at call
# time, so a wrapper installed on the module (such as a timing tracer)
# sees every fit.
FITTERS = {
    "dcm": lambda data, spec_x, spec_y, p, factor=_no_factor: dcm.fit_dcm(
        data, spec_x, p.epsilon, p.m, spec_y=spec_y, factor=factor()),
    "coir": lambda data, spec_x, spec_y, p, factor=_no_factor: dcm.fit_coir(
        data, spec_x, p.epsilon, p.m, spec_y=spec_y, factor=factor()),
    "kpca": lambda data, spec_x, spec_y, p, factor=_no_factor: dcm.fit_kpca(
        data, spec_x, p.m, factor=factor()),
    "fastdcm": lambda data, spec_x, spec_y, p, factor=_no_factor: fastpath.fit_fastdcm(
        data, spec_x, p.epsilon, p.m, p.M, p.seed, spec_y=spec_y),
    "fastcoir": lambda data, spec_x, spec_y, p, factor=_no_factor: fastpath.fit_fastcoir(
        data, spec_x, p.epsilon, p.m, p.M, p.seed, spec_y=spec_y),
}

# "baseline" is kernel ridge on the raw centered Gram: scored, never fitted
# to a ProjectionModel
ALGORITHMS = (*FITTERS, "baseline")


@dataclass
class RidgePredictor:
    weights: np.ndarray
    feature_means: np.ndarray
    intercept: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        F = np.asarray(features, dtype=float)
        return (F - self.feature_means[:, None]).T @ self.weights + self.intercept


def krr_fit(features, targets, lam: float) -> RidgePredictor:
    """Ridge fit on m x N features with an unpenalized intercept.

    A numerically degenerate normal-equations matrix triggers a warning
    and a retry with a 10x larger ridge (up to three escalations).
    """
    if lam <= 0:
        raise InvalidInput("lambda must be positive")
    F = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float).ravel()
    if F.ndim != 2 or F.shape[1] != y.shape[0]:
        raise InvalidInput("features must be m x N with N matching targets")
    fm = F.mean(axis=1)
    ym = float(y.mean())
    Fc = F - fm[:, None]
    G = Fc @ Fc.T
    m = F.shape[0]
    cur = lam
    evals = np.linalg.eigvalsh(0.5 * (G + G.T))
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        warnings.warn(
            f"rank-deficient feature matrix; ridge raised to {lam * 10.0:g}",
            RankDeficientWarning,
        )
        cur = lam * 10.0
    for _ in range(3):
        try:
            w = np.linalg.solve(G + cur * np.eye(m), Fc @ (y - ym))
        except np.linalg.LinAlgError:
            w = None
        if w is not None and np.all(np.isfinite(w)):
            return RidgePredictor(weights=w, feature_means=fm, intercept=ym)
        cur *= 10.0
        warnings.warn(
            f"ridge system failed to solve; ridge raised to {cur:g}",
            RankDeficientWarning,
        )
    raise InvalidInput("ridge system unsolvable even after escalation")


def predict_labels(scores: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(scores) >= 0.0, 1.0, -1.0)


def metric_accuracy(pred_labels, truth) -> float:
    p = np.asarray(pred_labels).ravel()
    t = np.asarray(truth).ravel()
    if p.shape != t.shape or p.size == 0:
        raise InvalidInput("prediction/truth length mismatch")
    return float(np.mean(p == t))


def metric_rmse(pred, truth) -> float:
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.shape != t.shape or p.size == 0:
        raise InvalidInput("prediction/truth length mismatch")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def metric_gmean(tp: int, fn: int, tn: int, fp: int) -> float:
    """Geometric mean of the two per-class recalls, in [0, 1]."""
    if tp + fn < 1 or tn + fp < 1:
        raise UndefinedMetric("g-mean needs at least one sample of each class")
    sens = tp / (tp + fn)
    spec = tn / (tn + fp)
    return float(np.sqrt(sens * spec))


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of s, tied values sharing the mean rank of their
    group; all NaN when any value is NaN (scipy.stats.rankdata's
    default)."""
    if np.isnan(s).any():
        return np.full(s.shape, np.nan)
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(s))
    # group g holds ranks starts[g] + 1 .. ends[g]
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def metric_auc(scores, labels) -> float:
    """Rank-based area under the ROC curve; ties contribute one half."""
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels, dtype=float).ravel()
    if s.shape != y.shape:
        raise InvalidInput("scores/labels length mismatch")
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("auc needs both classes present")
    ranks = _average_ranks(s)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def gmean_from_labels(pred_labels, truth) -> float:
    p = np.asarray(pred_labels).ravel()
    t = np.asarray(truth).ravel()
    tp = int(np.sum((p > 0) & (t > 0)))
    fn = int(np.sum((p <= 0) & (t > 0)))
    tn = int(np.sum((p <= 0) & (t <= 0)))
    fp = int(np.sum((p > 0) & (t <= 0)))
    return metric_gmean(tp, fn, tn, fp)


@dataclass
class ExperimentConfig:
    """Protocol of a repeated multi-domain experiment on synthetic data."""

    algorithms: tuple = ("dcm", "coir", "baseline")
    reps: int = 20
    seed: int = 100
    T: int = 10
    n: int = 10
    eta: float = 0.5
    mean_count: int = 100
    train_domains: int = 7
    gamma: float = 0.5
    gamma_y: float | None = None
    label_kind: str = "discrete"
    epsilon: float = 1e-3
    m: int = 5
    M: int = 50
    lam: float = 0.1


@dataclass
class EvalReport:
    """Results of run_experiment. timings[alg] holds the seconds spent in
    fit and predict, summed over repetitions. The first of cfg.algorithms
    that uses a split's input factor (dcm, coir, kpca or baseline) builds
    it, so its fit time carries that build and the others' do not."""

    config: dict
    seeds: list
    metrics: dict = field(default_factory=dict)
    per_rep: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "seeds": self.seeds,
            "metrics": {
                alg: {name: {"mean": mu, "std": sd} for name, (mu, sd) in by.items()}
                for alg, by in self.metrics.items()
            },
            "per_rep": self.per_rep,
            "timings_seconds": self.timings,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        metric_names = sorted({n for by in self.metrics.values() for n in by})
        header = f"{'algorithm':<10}" + "".join(f"{n:>20}" for n in metric_names)
        lines.append(header)
        for alg in self.metrics:
            row = f"{alg:<10}"
            for name in metric_names:
                if name in self.metrics[alg]:
                    mu, sd = self.metrics[alg][name]
                    row += f"{mu:>12.4f} +- {sd:<5.4f}"
                else:
                    row += f"{'-':>20}"
            lines.append(row)
        return "\n".join(lines)

    def per_rep_csv(self) -> str:
        lines = ["algorithm,rep,seed,metric,value"]
        for alg, by in self.per_rep.items():
            for name, vals in by.items():
                for r, v in enumerate(vals):
                    lines.append(f"{alg},{r},{self.seeds[r]},{name},{v!r}")
        return "\n".join(lines) + "\n"


def _split_stream(seed: int) -> np.random.Generator:
    key = np.array([seed, 2**32], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def resolve_spec_y(p, y: np.ndarray) -> KernelSpec:
    """Output kernel for p.label_kind: delta for discrete labels, else RBF
    with p.gamma_y, or the median heuristic on y when p.gamma_y is None."""
    if p.label_kind == "continuous":
        gamma_y = p.gamma_y if p.gamma_y is not None else median_gamma(y)
        return KernelSpec(RBF, gamma_y)
    return KernelSpec(DELTA)


def _ridge_dual(factor, b: np.ndarray, lam: float) -> np.ndarray:
    """(Kx + lam I)^-1 b for the centered Gram Kx = U diag(values) U^T of
    factor: U (values + lam)^-1 U^T b on its range, plus (b - U U^T b) / lam
    on the eigenvalues that kernel_factor counts as zero."""
    U = factor.vectors
    c = U.T @ b
    return U @ (c / (factor.values + lam)) + (b - U @ c) / lam


def score_predictions(scores, truth, label_kind: str) -> dict:
    """Metrics of ridge scores against the true outputs: rmse for
    continuous outputs; for +-1 labels, accuracy, plus auc and gmean when
    both classes are present."""
    if label_kind == "continuous":
        return {"rmse": metric_rmse(scores, truth)}
    labels = predict_labels(scores)
    out = {"accuracy": metric_accuracy(labels, truth)}
    try:
        out["auc"] = metric_auc(scores, truth)
        out["gmean"] = gmean_from_labels(labels, truth)
    except UndefinedMetric:
        pass
    return out


def _fit_and_score(alg: str, cfg: ExperimentConfig, spec_x, train, test, factor,
                   timings) -> dict:
    spec_y = resolve_spec_y(cfg, train.y)
    t0 = time.perf_counter()
    if alg == "baseline":
        f = factor()
        ym = float(train.y.mean())
        alpha = _ridge_dual(f, train.y - ym, cfg.lam)
        timings[alg]["fit"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        Kz = center_cross_from_means(cross_gram(spec_x, train.X, test.X), f.row_means)
        scores = Kz.T @ alpha + ym
    else:
        model = FITTERS[alg](train, spec_x, spec_y, cfg, factor)
        predictor = krr_fit(dcm.transform(model, train.X), train.y, cfg.lam)
        timings[alg]["fit"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        scores = predictor.predict(dcm.transform(model, test.X))
    timings[alg]["predict"] += time.perf_counter() - t0
    return score_predictions(scores, test.y, cfg.label_kind)


def _tagged(exc: Exception, where: str) -> Exception:
    """exc's type with where prefixed to its message, or a CovminError when
    that type cannot be built from one message."""
    msg = f"{where}: {exc}"
    try:
        return type(exc)(msg)
    except TypeError:
        return CovminError(msg)


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Run R seeded repetitions of generate / split / fit / score.

    Every algorithm inside one repetition sees the same dataset and the
    same domain split, so rows are paired by seed, and the dense fits and
    the baseline share one factorization of the split's input Gram. Fit
    errors are re-raised with the failing repetition attached and the
    original error as their cause.
    """
    for alg in cfg.algorithms:
        if alg not in ALGORITHMS:
            raise InvalidInput(f"unknown algorithm {alg!r}")
    if not 0 <= cfg.seed <= 2**64 - cfg.reps:
        raise InvalidInput(f"seeds {cfg.seed} to {cfg.seed + cfg.reps - 1} "
                           "must lie in [0, 2**64)")
    seeds = [cfg.seed + r for r in range(cfg.reps)]
    per_rep = {alg: {} for alg in cfg.algorithms}
    timings = {alg: {"fit": 0.0, "predict": 0.0} for alg in cfg.algorithms}
    spec_x = KernelSpec(RBF, cfg.gamma)
    for r, seed in enumerate(seeds):
        data = synth_generate(SynthConfig(
            T=cfg.T, n=cfg.n, eta=cfg.eta, mean_count=cfg.mean_count, seed=seed,
        ))
        domains = np.unique(data.d)
        order = _split_stream(seed).permutation(domains)
        train, test = split_domains(data, order[: cfg.train_domains])
        factor = functools.cache(lambda: dcm.kernel_factor(spec_x, train.X))
        for alg in cfg.algorithms:
            try:
                scores = _fit_and_score(alg, cfg, spec_x, train, test, factor, timings)
            except Exception as exc:
                raise _tagged(exc, f"repetition {r} (seed {seed}), algorithm {alg}") from exc
            for name, value in scores.items():
                per_rep[alg].setdefault(name, []).append(value)
    metrics = {
        alg: {
            name: (float(np.mean(vals)), float(np.std(vals)))
            for name, vals in by.items()
        }
        for alg, by in per_rep.items()
    }
    config_echo = {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in vars(cfg).items()}
    return EvalReport(config=config_echo, seeds=seeds, metrics=metrics,
                      per_rep=per_rep, timings=timings)
