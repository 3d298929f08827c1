"""Command-line interface: synth | fit | transform | eval | bench."""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import dcm
from .datagen import DataSet, SynthConfig, load_csv, save_csv, split_domains, synth_generate
from .errors import CovminError, InvalidInput
from .evaluate import (
    ALGORITHMS,
    FITTERS,
    ExperimentConfig,
    krr_fit,
    predict_labels,
    resolve_spec_y,
    run_experiment,
)
from .kernels import RBF, KernelSpec


def _positive(convert):
    """argparse type: convert(text), finite and > 0; any other value is a
    usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            ok = value > 0 and math.isfinite(value)
        except (ValueError, OverflowError):  # not a number; an int beyond float
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"expected a positive {convert.__name__}, got {text!r}")
        return value
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(item) for item in text.split(",")]


def _names(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--output", help="output path (or prefix for eval)")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="dcm")
    p.add_argument("--epsilon", type=_positive_float, default=1e-3)
    p.add_argument("--gamma", type=_positive_float, help="rbf width for the input kernel")
    p.add_argument("--gamma-y", type=_positive_float, dest="gamma_y",
                   help="rbf width for continuous outputs (median heuristic if omitted)")
    p.add_argument("--m", type=_positive_int, default=5, help="projection dimension")
    p.add_argument("--M", type=_positive_int, default=50,
                   help="landmark count for fast algorithms")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_positive_int, default=20)
    p.add_argument("--feature-cols", default="auto",
                   help="comma-separated feature columns, or 'auto'")
    p.add_argument("--label-col", default="y")
    p.add_argument("--domain-col", default="d")
    p.add_argument("--label-kind", choices=("discrete", "continuous"), default="discrete")


def _load_input(args) -> DataSet:
    if not args.input:
        raise CovminError("--input is required")
    if args.feature_cols == "auto":
        with open(args.input) as fh:
            header = fh.readline().strip().split(",")
        cols = [c for c in header if c not in (args.label_col, args.domain_col)]
    else:
        cols = [c.strip() for c in args.feature_cols.split(",") if c.strip()]
    return load_csv(args.input, cols, args.label_col, args.domain_col,
                    label_kind=args.label_kind)


def cmd_synth(args) -> int:
    cfg = SynthConfig(eta=args.eta, seed=args.seed, T=args.domains,
                      n=args.dim, mean_count=args.mean_count)
    data = synth_generate(cfg)
    save_csv(data, args.output)
    sidecar = {
        "T": cfg.T, "n": cfg.n, "eta": cfg.eta, "mean_count": cfg.mean_count,
        "seed": cfg.seed, "c": cfg.c,
        "b1": cfg.b1.tolist(), "b2": cfg.b2.tolist(),
        "rows": len(data),
    }
    with open(args.output + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"wrote {len(data)} rows across {cfg.T} domains to {args.output}")
    return 0


def _fit_model(args, data: DataSet):
    if args.gamma is None:
        raise CovminError("--gamma is required for fitting")
    if args.algorithm not in FITTERS:
        raise CovminError(f"algorithm {args.algorithm!r} has no fitted model (use eval)")
    spec_x = KernelSpec(RBF, args.gamma)
    return FITTERS[args.algorithm](data, spec_x, resolve_spec_y(args, data.y), args)


def cmd_fit(args) -> int:
    data = _load_input(args)
    model = _fit_model(args, data)
    dcm.save_model(model, args.output)
    vals = ", ".join(f"{v:.6g}" for v in model.eigenvalues)
    print(f"{model.algorithm}: m={model.m} eigenvalues [{vals}]")
    print(f"model written to {args.output}")
    return 0


def cmd_transform(args) -> int:
    if not args.model:
        raise CovminError("--model is required")
    model = dcm.load_model(args.model)
    data = _load_input(args)
    coords = dcm.transform(model, data.X)
    with open(args.output, "w") as fh:
        fh.write(",".join([f"z{j}" for j in range(coords.shape[0])] + ["y", "d"]) + "\n")
        for i in range(coords.shape[1]):
            row = [repr(float(v)) for v in coords[:, i]]
            fh.write(",".join(row + [str(data.y[i]), str(data.d[i])]) + "\n")
    print(f"projected {coords.shape[1]} rows to {coords.shape[0]} coordinates")
    return 0


def cmd_eval(args) -> int:
    if args.model:
        report = _eval_with_model(args)
    else:
        cfg = ExperimentConfig(
            algorithms=args.compare, reps=args.reps, seed=args.seed,
            eta=args.eta, gamma=args.gamma if args.gamma is not None else 0.5,
            gamma_y=args.gamma_y, label_kind=args.label_kind,
            epsilon=args.epsilon, m=args.m, M=args.M, lam=args.lam,
        )
        report = run_experiment(cfg)
    prefix = args.output or "eval_report"
    with open(prefix + ".json", "w") as fh:
        fh.write(report.to_json())
    with open(prefix + ".txt", "w") as fh:
        fh.write(report.to_text() + "\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(report.per_rep_csv())
    print(report.to_text())
    return 0


def _eval_with_model(args):
    from .evaluate import EvalReport, metric_accuracy, metric_rmse

    model = dcm.load_model(args.model)
    data = _load_input(args)
    if not args.train_domains:
        raise CovminError("--train-domains is required with --model")
    kind = type(data.d.ravel()[0])
    wanted = []
    for text in args.train_domains.split(","):
        try:
            wanted.append(kind(text))
        except ValueError:
            raise InvalidInput(
                f"--train-domains value {text!r} is not a {kind.__name__} domain label"
            ) from None
    train, test = split_domains(data, wanted)
    predictor = krr_fit(dcm.transform(model, train.X), train.y, args.lam)
    scores = predictor.predict(dcm.transform(model, test.X))
    if args.label_kind == "continuous":
        metrics = {"rmse": (metric_rmse(scores, test.y), 0.0)}
    else:
        metrics = {"accuracy": (metric_accuracy(predict_labels(scores), test.y), 0.0)}
    return EvalReport(
        config={"model": args.model, "input": args.input, "lam": args.lam},
        seeds=[args.seed],
        metrics={model.algorithm: metrics},
        per_rep={model.algorithm: {k: [v[0]] for k, v in metrics.items()}},
        timings={},
    )


def cmd_bench(args) -> int:
    gamma = args.gamma if args.gamma is not None else 0.5
    spec_x = KernelSpec(RBF, gamma)
    rows = []
    for nominal in args.sizes:
        data = synth_generate(SynthConfig(
            eta=args.eta, seed=args.seed, mean_count=max(1, nominal // 10),
        ))
        N = len(data)
        spec_y = resolve_spec_y(args, data.y)
        for alg in args.compare:
            if alg not in FITTERS:
                raise CovminError(f"bench does not support algorithm {alg!r}")
            t0 = time.perf_counter()
            FITTERS[alg](data, spec_x, spec_y, args)
            elapsed = time.perf_counter() - t0
            rows.append((N, args.M, alg, elapsed))
            print(f"N={N} M={args.M} {alg}: {elapsed:.3f}s")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write("N,M,algorithm,seconds\n")
            for N, M, alg, secs in rows:
                fh.write(f"{N},{M},{alg},{secs!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmin",
        description="Kernel projections that suppress domain-specific variation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a multi-domain synthetic CSV")
    _add_shared(p)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--domains", type=_positive_int, default=10)
    p.add_argument("--dim", type=_positive_int, default=10)
    p.add_argument("--mean-count", type=_positive_int, default=100)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a projection model from a CSV")
    _add_shared(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="project a CSV with a fitted model")
    _add_shared(p)
    p.add_argument("--model", help="fitted model path")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("eval", help="repeated-experiment report")
    _add_shared(p)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--lam", type=_positive_float, default=0.1)
    p.add_argument("--compare", type=_names, default="dcm,coir,baseline")
    p.add_argument("--model", help="score a fitted model instead of end-to-end")
    p.add_argument("--train-domains", help="comma list of training domains (with --model)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="wall-clock timing sweep")
    _add_shared(p)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--sizes", type=_positive_ints, default="1000,2000,4000")
    p.add_argument("--compare", type=_names, default="fastdcm")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("fit", "transform") and not args.output:
        parser.error("--output is required")
    if args.command == "eval" and args.input and not args.model:
        parser.error("--input needs --model: eval without --model runs the "
                     "synthetic protocol and reads no file")
    named = args.compare if args.command in ("eval", "bench") else (args.algorithm,)
    if args.m > args.M and {"fastdcm", "fastcoir"} & set(named):
        parser.error(f"m={args.m} must not exceed M={args.M}")
    try:
        return args.func(args)
    except CovminError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
