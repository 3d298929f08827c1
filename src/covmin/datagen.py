"""Multi-domain synthetic data generation and CSV ingestion.

The synthetic sampler draws each domain from its own counter-based RNG
stream (Philox keyed by (seed, domain)), so domain i's data never depends
on how many domains are requested and generation is reproducible to the
byte for a fixed config.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, SchemaError

_COV_FLOOR = 1e-12


@dataclass
class DataSet:
    """Samples with outputs and domain labels.

    X is N x n and finite, y has length N (class labels as +-1.0 or
    finite real values), d has length N. domain_sizes maps each observed
    domain label to its sample count.
    """

    X: np.ndarray
    y: np.ndarray
    d: np.ndarray
    domain_sizes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        self.d = np.asarray(self.d)
        n = self.X.shape[0]
        if len(self.y) != n or len(self.d) != n:
            raise InvalidInput("X, y, d must agree in length")
        if not np.isfinite(self.X).all():
            raise InvalidInput("X has non-finite entries")
        if self.y.dtype.kind == "f" and not np.isfinite(self.y).all():
            raise InvalidInput("y has non-finite entries")
        if not self.domain_sizes:
            labels, counts = np.unique(self.d, return_counts=True)
            self.domain_sizes = dict(zip(labels.tolist(), counts.tolist()))

    def __len__(self):
        return self.X.shape[0]


def _default_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed label weight vectors, drawn once from the zero-keyed stream."""
    g = np.random.Generator(np.random.Philox(key=0))
    return g.standard_normal(n), g.standard_normal(n)


@dataclass
class SynthConfig:
    """Configuration of the multi-domain synthetic generator.

    Each domain gets a fresh covariance draw; the labeling rule is shared
    by all domains so only the marginal distribution shifts. b1 and b2
    default to fixed standard-normal vectors (independent of seed) so two
    configs with different seeds still share one labeling rule.
    """

    T: int = 10
    n: int = 10
    eta: float = 0.5
    mean_count: int = 100
    seed: int = 0
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None
    c: float = 0.5

    def __post_init__(self):
        if self.eta <= 0:
            raise InvalidInput("eta must be positive")
        if self.mean_count < 1:
            raise InvalidInput("mean_count must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidInput(f"seed must lie in [0, 2**64), got {self.seed}")
        defaults = _default_weights(self.n)
        if self.b1 is None:
            self.b1 = defaults[0]
        if self.b2 is None:
            self.b2 = defaults[1]
        self.b1 = np.asarray(self.b1, dtype=float)
        self.b2 = np.asarray(self.b2, dtype=float)
        if self.b1.shape != (self.n,) or self.b2.shape != (self.n,):
            raise InvalidInput("b1 and b2 must have length n")


def sample_wishart(eta: float, n: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart draw with scale eta*I: A^T A for A (dof x n), rows N(0, eta*I).

    The expectation is eta * dof * I; symmetry is exact by construction
    and the result is PSD.
    """
    if dof < n:
        raise InvalidInput("dof must be at least n for an a.s. full-rank draw")
    A = rng.standard_normal((dof, n)) * np.sqrt(eta)
    S = A.T @ A
    return 0.5 * (S + S.T)


def _sgn(v: np.ndarray) -> np.ndarray:
    # sign convention with sgn(0) = +1
    return np.where(v >= 0.0, 1.0, -1.0)


def _domain_stream(seed: int, domain: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, domain], dtype=np.uint64)))


def synth_generate(cfg: SynthConfig) -> DataSet:
    """Generate T domains of labeled points with shifted marginals.

    Domain t draws its size from Poisson(mean_count) (redrawn while zero),
    a covariance with per-coordinate variance eta in expectation, then
    zero-mean Gaussian points. Labels follow the shared two-factor rule
    y = sgn( sgn(b1.x + e1) * log(|b2.x + e2| + c) ) with unit-normal
    per-point noise, so y is +-1.0.
    """
    Xs, ys, ds = [], [], []
    for t in range(1, cfg.T + 1):
        rng = _domain_stream(cfg.seed, t)
        ni = 0
        while ni == 0:
            ni = int(rng.poisson(cfg.mean_count))
        # scale eta/n puts the expected covariance at eta * I, which keeps
        # an rbf kernel with gamma around 0.1..1 in its informative range
        Sigma = sample_wishart(cfg.eta / cfg.n, cfg.n, cfg.n, rng)
        L = np.linalg.cholesky(Sigma + _COV_FLOOR * np.eye(cfg.n))
        Xi = rng.standard_normal((ni, cfg.n)) @ L.T
        e1 = rng.standard_normal(ni)
        e2 = rng.standard_normal(ni)
        factor1 = _sgn(Xi @ cfg.b1 + e1)
        factor2 = np.log(np.abs(Xi @ cfg.b2 + e2) + cfg.c)
        yi = _sgn(factor1 * factor2)
        Xs.append(Xi)
        ys.append(yi)
        ds.append(np.full(ni, t, dtype=np.int64))
    return DataSet(X=np.vstack(Xs), y=np.concatenate(ys), d=np.concatenate(ds))


def split_domains(data: DataSet, train_domains) -> tuple[DataSet, DataSet]:
    """Split by domain label; train_domains must be a proper nonempty subset."""
    observed = set(np.unique(data.d).tolist())
    requested = set(np.asarray(list(train_domains)).tolist())
    unknown = requested - observed
    if unknown:
        raise InvalidInput(f"unknown domain labels: {sorted(unknown)}")
    if not requested or requested == observed:
        raise InvalidInput("train_domains must be a proper nonempty subset")
    mask = np.isin(data.d, sorted(requested))
    train = DataSet(X=data.X[mask], y=data.y[mask], d=data.d[mask])
    test = DataSet(X=data.X[~mask], y=data.y[~mask], d=data.d[~mask])
    return train, test


def save_csv(data: DataSet, path: str) -> None:
    """Write a dataset as CSV with header x0..x{n-1},y,d."""
    n = data.X.shape[1]
    header = [f"x{j}" for j in range(n)] + ["y", "d"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(data)):
            row = [repr(float(v)) for v in data.X[i]]
            yv = data.y[i]
            row.append(repr(float(yv)) if np.issubdtype(data.y.dtype, np.floating) else str(yv))
            row.append(str(data.d[i]))
            writer.writerow(row)


def _parse_float(text: str, lineno: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidInput(f"line {lineno}: column {col!r} has a bad numeric {text!r}") from None


def load_csv(path: str, feature_cols, label_col: str, domain_col: str) -> DataSet:
    """Parse a CSV with named feature, output, and domain columns.

    Header names are matched after stripping surrounding whitespace, and
    a name that occurs twice raises SchemaError; feature_cols None takes
    every column except the label and domain columns, in header order.
    Labels are parsed as floats, discrete or continuous alike. The file
    is read as UTF-8; other bytes raise naming the file. Unparsable
    numerics, rows too short for the named columns and rows longer than
    the header raise with the 1-based line number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidInput(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            duplicated = sorted({c for c in header if header.count(c) > 1})
            if duplicated:
                raise SchemaError(f"{path}: duplicate columns {duplicated}")
            if feature_cols is None:
                feature_cols = [c for c in header if c not in (label_col, domain_col)]
            missing = [c for c in list(feature_cols) + [label_col, domain_col]
                       if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            fidx = [header.index(c) for c in feature_cols]
            yidx = header.index(label_col)
            didx = header.index(domain_col)
            width = max(fidx + [yidx, didx]) + 1
            rows_X, rows_y, rows_d = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if not width <= len(row) <= len(header):
                    raise InvalidInput(
                        f"line {lineno}: {len(row)} fields, header has {len(header)}"
                    )
                rows_X.append([_parse_float(row[j], lineno, header[j]) for j in fidx])
                rows_y.append(_parse_float(row[yidx], lineno, label_col))
                rows_d.append(row[didx].strip())
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}: not UTF-8 text") from None
    if not rows_X:
        raise InvalidInput(f"{path}: no data rows")
    try:
        d = np.asarray([int(v) for v in rows_d], dtype=np.int64)
    except ValueError:
        d = np.asarray(rows_d)
    return DataSet(X=np.asarray(rows_X, dtype=float), y=np.asarray(rows_y, dtype=float),
                   d=d)
