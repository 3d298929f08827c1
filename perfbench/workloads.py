"""The benchmark's three workloads against the public covmin API.

Each workload builds its inputs from the seed (setup), runs a fixed pass
of phases that the runner repeats for the measured time, computes its
quality numbers once, and checks invariants of the outputs. Every call
into covmin goes through the package namespace (covmin.fit_dcm, ...) so
that the tracer's wrappers see it.

All three workloads serve the model they fit: a pass ends with a
save/load round trip, batch-1 transform calls and batch-1000 transform
calls on held-out points, so every end-to-end metric exists on every
workload.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import covmin

EPSILON = 1e-3
M_PROJ = 5
LAM = 0.1
RBF = covmin.KernelSpec("rbf", 0.5)
DELTA = covmin.KernelSpec("delta")
#: landmark count of the fastdcm fits behind accuracy_fast (the protocol's M)
FAST_M = 50
ROUNDTRIP_TOL = 1e-10
RESIDUAL_TOL = 1e-8
ROUNDTRIP_ROWS = 100
PROTOCOL_ALGORITHMS = ("dcm", "coir", "baseline", "fastdcm")


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload; `n_train` rows are kept exactly."""

    T: int                    # domains generated
    mean_count: int           # mean rows per domain
    train_domains: int
    n_train: int
    fits: int                 # fits per serving sequence
    b1_calls: int             # batch-1 transform calls per serving sequence
    b1000_batches: int        # batch-1000 transform calls per serving sequence
    chunks: int               # alternating batch-1 / batch-1000 chunks they run in
    batch: int = 1000
    M: int = 200              # landmarks of the served fastdcm model
    quality_rows: int = 0     # landmark: training rows for the downstream ridge fit
    quality_test_rows: int = 0  # landmark: held-out rows it is scored on
    fast_draws: int = 1       # landmark draws averaged into accuracy_fast
    reps: int = 20            # protocol repetitions


SIZES = {
    "protocol": Size(T=20, mean_count=120, train_domains=7, n_train=700,
                     fits=3, b1_calls=20000, b1000_batches=60, chunks=10),
    "dense-continuous": Size(T=34, mean_count=120, train_domains=14, n_train=1600,
                             fits=1, b1_calls=20000, b1000_batches=60, chunks=10,
                             fast_draws=5),
    "landmark": Size(T=20, mean_count=3300, train_domains=10, n_train=32000,
                     fits=1, b1_calls=1000, b1000_batches=2, chunks=2, quality_rows=1000,
                     quality_test_rows=2000, fast_draws=2),
}

#: small inputs for the self-test; same code paths, seconds per run
SMOKE_SIZES = {
    "protocol": replace(SIZES["protocol"], T=12, mean_count=40, n_train=150, fits=1,
                        b1_calls=20, b1000_batches=2, chunks=2, batch=100, reps=2),
    "dense-continuous": replace(SIZES["dense-continuous"], T=12, mean_count=40,
                                train_domains=6, n_train=150, b1_calls=20,
                                b1000_batches=2, chunks=2, batch=100),
    "landmark": replace(SIZES["landmark"], T=12, mean_count=200, train_domains=6,
                        n_train=1000, b1_calls=20, b1000_batches=2, batch=100,
                        M=60, quality_rows=200, quality_test_rows=300),
}


def _sign(v):
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def ordering_holds(acc: dict) -> bool:
    """Criterion 4: dcm beats the baseline by 2 points and coir by no less than -1."""
    dcm, coir, base = (100.0 * acc[a] for a in ("dcm", "coir", "baseline"))
    return dcm >= base + 2.0 and dcm >= coir - 1.0


def pencil_residual(model, train, spec_y) -> float:
    """Worst scaled residual of the model's eigenpairs against the pencil.

    The pencil is assembled here from gram/center_gram with the formulas
    of the build_operator_pair docstring,
      A = Ky (Ky + N eps I)^-1 Kx Kx + Kx,  B = Kd (Kd + N eps I)^-1 Kx Kx + Kx,
    and solved as (Kx A) v = lambda (Kx B + N eps I) v. The residual of
    each pair is ||P v - lambda Q v|| / ((||P|| + |lambda| ||Q||) ||v||).
    """
    N = len(train)
    Kx = covmin.center_gram(covmin.gram(RBF, train.X))
    Ky = covmin.center_gram(covmin.gram(spec_y, train.y))
    Kd = covmin.center_gram(covmin.gram(DELTA, train.d))
    KxKx = Kx @ Kx
    R = N * EPSILON * np.eye(N)
    A = Ky @ np.linalg.solve(Ky + R, KxKx) + Kx
    B = Kd @ np.linalg.solve(Kd + R, KxKx) + Kx
    P, Q = Kx @ A, Kx @ B + R
    nP, nQ = np.linalg.norm(P, "fro"), np.linalg.norm(Q, "fro")
    worst = 0.0
    for k in range(model.m):
        v = model.coefficients[:, k]
        lam = model.eigenvalues[k]
        scale = (nP + abs(lam) * nQ) * np.linalg.norm(v)
        worst = max(worst, float(np.linalg.norm(P @ v - lam * (Q @ v)) / scale))
    return worst


class Workload:
    """One workload's inputs, measured pass, quality numbers and checks."""

    name = ""

    def __init__(self, seed: int, size: Size, scratch_dir):
        self.seed = seed
        self.size = size
        self.scratch_dir = scratch_dir
        self.phase = lambda name: contextlib.nullcontext()
        self.model = None
        self.model_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = {"pass_s": [], "fit_s": [], "b1_ms": [], "b1000_s": []}

    # -- helpers ---------------------------------------------------------
    def _call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def _check_output(self, out, model, n: int) -> None:
        finite = bool(np.isfinite(out).all())
        if out.shape != (model.m, n) or not finite:
            self.check("transform output", False,
                       f"shape {out.shape} (expected {(model.m, n)}), finite {finite}")

    def _transform(self, model, Z):
        """Transform in batches of `size.batch` rows, checking each output."""
        parts = []
        for start in range(0, len(Z), self.size.batch):
            chunk = Z[start : start + self.size.batch]
            out = self._call(covmin.transform, model, chunk)
            self._check_output(out, model, len(chunk))
            parts.append(out)
        return np.hstack(parts)

    def _split(self, data_seed: int, target=None):
        """Generate T domains, hold out all but `train_domains` of them and
        keep exactly `n_train` training rows; held-out rows are shuffled."""
        s = self.size
        data = self._call(covmin.synth_generate, covmin.SynthConfig(
            T=s.T, mean_count=s.mean_count, seed=data_seed))
        if target is not None:
            data = covmin.DataSet(X=data.X, y=target(data), d=data.d)
        rng = np.random.default_rng([self.seed, 0])
        domains = rng.permutation(np.arange(1, s.T + 1))
        train, held = self._call(covmin.split_domains, data, domains[: s.train_domains])
        if len(train) < s.n_train:
            raise RuntimeError(f"only {len(train)} training rows, need {s.n_train}")
        keep = np.sort(rng.choice(len(train), s.n_train, replace=False))
        train = covmin.DataSet(X=train.X[keep], y=train.y[keep], d=train.d[keep])
        order = rng.permutation(len(held))
        held = covmin.DataSet(X=held.X[order], y=held.y[order], d=held.d[order])
        self.queries = held.X
        self.batches = [np.take(held.X, np.arange(j * s.batch, (j + 1) * s.batch),
                                axis=0, mode="wrap")
                        for j in range(s.b1000_batches)]
        return train, held

    def _downstream(self, model, train, test):
        """Ridge on projected training rows; sign accuracy and RMSE on test rows."""
        predictor = self._call(covmin.krr_fit, self._transform(model, train.X), train.y, LAM)
        pred = predictor.predict(self._transform(model, test.X))
        accuracy = float(np.mean(_sign(pred) == _sign(test.y)))
        rmse = float(np.sqrt(np.mean((pred - test.y) ** 2)))
        return accuracy, rmse

    def _fast_accuracy(self, train, test, **spec) -> float:
        """Mean held-out accuracy of fastdcm at M=FAST_M over `fast_draws` landmark
        draws. The landmarks are sampled from self.train; `train` and `test` are
        the rows the downstream ridge is fitted and scored on."""
        draws = self.size.fast_draws
        total = 0.0
        for k in range(draws):
            fast = self._call(covmin.fit_fastdcm, self.train, RBF, EPSILON, M_PROJ, FAST_M,
                              draws * self.seed + k, **spec)
            total += self._downstream(fast, train, test)[0]
        return total / draws

    # -- the measured pass -----------------------------------------------
    def steps(self):
        # batch-1 and batch-1000 calls alternate in chunks, so that both sample
        # the whole serving time: this host changes speed every few seconds
        serve = []
        for chunk in range(self.size.chunks):
            serve += [("transform_b1", functools.partial(self.serve_b1, chunk)),
                      ("transform_b1000", functools.partial(self.serve_b1000, chunk))]
        return [("fit", self.fit_phase), ("roundtrip", self.roundtrip)] + serve

    def run_pass(self) -> None:
        t0 = time.perf_counter()
        for name, step in self.steps():
            with self.phase(name):
                step()
        self.samples["pass_s"].append(time.perf_counter() - t0)

    def fit_phase(self) -> None:
        for _ in range(self.size.fits):
            t0 = time.perf_counter()
            model = self._call(self.fit)
            self.samples["fit_s"].append(time.perf_counter() - t0)
        self.model = model

    def roundtrip(self) -> None:
        path = os.path.join(self.scratch_dir, f"model-{self.name}-{os.getpid()}.bin")
        try:
            self._call(covmin.save_model, self.model, path)
            self.model_bytes = os.path.getsize(path)
            back = self._call(covmin.load_model, path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        Q = self.queries[:ROUNDTRIP_ROWS]
        dev = float(np.max(np.abs(self._transform(back, Q) - self._transform(self.model, Q))))
        self.check("round trip", dev <= ROUNDTRIP_TOL,
                   f"transform after save/load deviates by {dev:.3e}")

    def serve_b1(self, chunk: int) -> None:
        lat = []
        self.samples["b1_ms"].append(lat)
        n = len(self.queries)
        calls = self.size.b1_calls // self.size.chunks
        for i in range(chunk * calls, (chunk + 1) * calls):
            z = self.queries[i % n : i % n + 1]
            self.attempted += 1
            t0 = time.perf_counter()
            out = covmin.transform(self.model, z)
            lat.append(1e3 * (time.perf_counter() - t0))
            self._check_output(out, self.model, 1)

    def serve_b1000(self, chunk: int) -> None:
        times = []
        self.samples["b1000_s"].append(times)
        per_chunk = len(self.batches) // self.size.chunks
        for Z in self.batches[chunk * per_chunk : (chunk + 1) * per_chunk]:
            self.attempted += 1
            t0 = time.perf_counter()
            out = covmin.transform(self.model, Z)
            times.append(time.perf_counter() - t0)
            self._check_output(out, self.model, len(Z))

    # -- per workload ----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def fit(self):
        raise NotImplementedError

    def quality(self) -> dict:
        """accuracy, accuracy_fast and rmse; computed once, after the passes."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks that run once, untraced, after the passes."""


class Protocol(Workload):
    """The criterion-4 experiment between two serving sequences of a dense
    dcm model at N=700."""

    name = "protocol"

    def setup(self):
        s = self.size
        # seed 0 is the criterion-4 configuration; seeds 20 apart share no repetition
        data_seed = 100 + s.reps * self.seed
        self.cfg = covmin.ExperimentConfig(algorithms=PROTOCOL_ALGORITHMS, reps=s.reps,
                                           seed=data_seed, M=FAST_M)
        self.train, self.held = self._split(data_seed)
        self.protocol_accuracy = None

    def steps(self):
        # serve before and after the protocol, so that the serving samples
        # come from two moments some 40 s apart
        serve = super().steps()
        return serve + [("protocol", self.protocol)] + serve

    def protocol(self):
        report = self._call(covmin.run_experiment, self.cfg)
        acc = {alg: report.metrics[alg]["accuracy"][0] for alg in PROTOCOL_ALGORITHMS}
        self.check("criterion-4 ordering", ordering_holds(acc),
                   "accuracies " + ", ".join(f"{a} {100 * v:.2f}" for a, v in acc.items()))
        self.protocol_accuracy = acc

    def fit(self):
        return covmin.fit_dcm(self.train, RBF, EPSILON, M_PROJ)

    def quality(self):
        _, rmse = self._downstream(self.model, self.train, self.held)
        return {"accuracy": self.protocol_accuracy["dcm"],
                "accuracy_fast": self.protocol_accuracy["fastdcm"], "rmse": rmse}


class DenseContinuous(Workload):
    """Dense dcm with an RBF output kernel on a real-valued target, N=1600."""

    name = "dense-continuous"

    def setup(self):
        rule = covmin.SynthConfig(n=10)

        def target(data):
            # the synthetic labelling rule before its final sign, so the
            # sign of the target is the class the generator would assign
            e1, e2 = np.random.default_rng([self.seed, 1]).standard_normal((2, len(data)))
            return (_sign(data.X @ rule.b1 + e1)
                    * np.log(np.abs(data.X @ rule.b2 + e2) + rule.c))

        self.train, self.held = self._split(self.seed, target)
        self.spec_y = covmin.KernelSpec("rbf", covmin.median_gamma(self.train.y))
        self.scores = None

    def steps(self):
        steps = super().steps()
        return steps[:1] + [("evaluate", self.evaluate)] + steps[1:]

    def fit(self):
        return covmin.fit_dcm(self.train, RBF, EPSILON, M_PROJ, spec_y=self.spec_y)

    def evaluate(self):
        self.scores = self._downstream(self.model, self.train, self.held)

    def quality(self):
        accuracy, rmse = self.scores
        return {"accuracy": accuracy, "rmse": rmse,
                "accuracy_fast": self._fast_accuracy(self.train, self.held, spec_y=self.spec_y)}

    def final_checks(self):
        worst = pencil_residual(self.model, self.train, self.spec_y)
        self.check("eigenpair residual", worst <= RESIDUAL_TOL,
                   f"worst scaled residual {worst:.3e} > {RESIDUAL_TOL:g}")


class Landmark(Workload):
    """fastdcm at N=32000, M=200, served on held-out points."""

    name = "landmark"

    def setup(self):
        self.train, self.held = self._split(self.seed)

    def fit(self):
        return covmin.fit_fastdcm(self.train, RBF, EPSILON, M_PROJ, self.size.M, self.seed)

    def _subset(self, data, rows, stream):
        keep = np.random.default_rng([self.seed, stream]).choice(len(data), rows, replace=False)
        return covmin.DataSet(X=data.X[keep], y=data.y[keep], d=data.d[keep])

    def quality(self):
        s = self.size
        train = self._subset(self.train, s.quality_rows, 2)
        test = self._subset(self.held, s.quality_test_rows, 3)
        accuracy, rmse = self._downstream(self.model, train, test)
        return {"accuracy": accuracy, "rmse": rmse,
                "accuracy_fast": self._fast_accuracy(train, test)}


WORKLOADS = {cls.name: cls for cls in (Protocol, DenseContinuous, Landmark)}
