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
    EvalReport,
    ExperimentConfig,
    krr_fit,
    resolve_spec_y,
    run_experiment,
    score_predictions,
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


#: every option, declared once; each subcommand adds the ones its handler
#: reads (build_parser)
_OPTIONS = {
    "--input": dict(help="input CSV path"),
    "--output": dict(help="output path (or prefix for eval)"),
    "--model": dict(help="fitted model path (eval: score it on --input)"),
    "--algorithm": dict(choices=tuple(FITTERS), default="dcm"),
    "--epsilon": dict(type=_positive_float, default=1e-3),
    "--gamma": dict(type=_positive_float, help="rbf width for the input kernel"),
    "--gamma-y": dict(type=_positive_float,
                      help="rbf width for continuous outputs (median heuristic if omitted)"),
    "--m": dict(type=_positive_int, default=5, help="projection dimension"),
    "--M": dict(type=_positive_int, default=50, help="landmark count for fast algorithms"),
    "--seed": dict(type=int, default=0),
    "--reps": dict(type=_positive_int, default=20),
    "--feature-cols": dict(default="auto",
                           help="comma-separated feature columns, or 'auto' for every "
                                "column except the label and domain columns"),
    "--label-col": dict(default="y"),
    "--domain-col": dict(default="d"),
    "--label-kind": dict(choices=("discrete", "continuous"), default="discrete"),
    "--eta": dict(type=_positive_float, default=0.5),
    "--domains": dict(type=_positive_int, default=10),
    "--dim": dict(type=_positive_int, default=10),
    "--mean-count": dict(type=_positive_int, default=100),
    "--lam": dict(type=_positive_float, default=0.1),
    "--sizes": dict(type=_positive_ints, default="1000,2000,4000"),
    "--compare": dict(type=_names, help="comma list of algorithms"),
    "--train-domains": dict(help="comma list of training domains (with --model)"),
}

_CSV_OPTIONS = ("--input", "--feature-cols", "--label-col", "--domain-col")
_FIT_OPTIONS = ("--epsilon", "--gamma", "--gamma-y", "--m", "--M", "--seed")
#: eval options that only the synthetic protocol reads, not eval --model
_PROTOCOL_OPTIONS = ("--epsilon", "--gamma", "--gamma-y", "--m", "--M", "--eta", "--reps",
                     "--compare")


def _load_input(args) -> DataSet:
    cols = None if args.feature_cols == "auto" else _names(args.feature_cols)
    return load_csv(args.input, cols, args.label_col, args.domain_col)


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


def cmd_fit(args) -> int:
    data = _load_input(args)
    model = FITTERS[args.algorithm](data, KernelSpec(RBF, args.gamma),
                                    resolve_spec_y(args, data.y), args)
    dcm.save_model(model, args.output)
    vals = ", ".join(f"{v:.6g}" for v in model.eigenvalues)
    print(f"{model.algorithm}: m={model.m} eigenvalues [{vals}]")
    print(f"model written to {args.output}")
    return 0


def cmd_transform(args) -> int:
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
            eta=args.eta, gamma=args.gamma,
            gamma_y=args.gamma_y, label_kind=args.label_kind,
            epsilon=args.epsilon, m=args.m, M=args.M, lam=args.lam,
        )
        report = run_experiment(cfg)
    with open(args.output + ".json", "w") as fh:
        fh.write(report.to_json())
    with open(args.output + ".txt", "w") as fh:
        fh.write(report.to_text() + "\n")
    with open(args.output + ".csv", "w") as fh:
        fh.write(report.per_rep_csv())
    print(report.to_text())
    return 0


def _eval_with_model(args):
    model = dcm.load_model(args.model)
    data = _load_input(args)
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
    metrics = {name: (value, 0.0) for name, value
               in score_predictions(scores, test.y, args.label_kind).items()}
    return EvalReport(
        config={"model": args.model, "input": args.input, "lam": args.lam},
        seeds=[args.seed],
        metrics={model.algorithm: metrics},
        per_rep={model.algorithm: {k: [v[0]] for k, v in metrics.items()}},
        timings={},
    )


def cmd_bench(args) -> int:
    spec_x = KernelSpec(RBF, args.gamma)
    rows = []
    for nominal in args.sizes:
        data = synth_generate(SynthConfig(
            eta=args.eta, seed=args.seed, mean_count=max(1, nominal // 10),
        ))
        N = len(data)
        spec_y = resolve_spec_y(args, data.y)
        for alg in args.compare:
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


def _subcommand(sub, name: str, handler, help: str, flags, required=(), **defaults):
    """Subcommand name declaring the _OPTIONS named in flags, those in
    required as required; defaults maps an option's dest to its default in
    this subcommand."""
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in flags:
        p.add_argument(flag, required=flag in required, **_OPTIONS[flag])
    p.set_defaults(func=handler, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmin",
        description="Kernel projections that suppress domain-specific variation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "synth", cmd_synth, "generate a multi-domain synthetic CSV",
                ("--output", "--seed", "--eta", "--domains", "--dim", "--mean-count"),
                required=("--output",))
    _subcommand(sub, "fit", cmd_fit, "fit a projection model from a CSV",
                (*_CSV_OPTIONS, *_FIT_OPTIONS, "--label-kind", "--output", "--algorithm"),
                required=("--input", "--output", "--gamma"))
    _subcommand(sub, "transform", cmd_transform, "project a CSV with a fitted model",
                (*_CSV_OPTIONS, "--output", "--model"),
                required=("--input", "--output", "--model"))
    _subcommand(sub, "eval", cmd_eval, "repeated-experiment report",
                (*_CSV_OPTIONS, *_FIT_OPTIONS, "--label-kind", "--output", "--eta", "--reps",
                 "--lam", "--compare", "--model", "--train-domains"),
                output="eval_report", gamma=0.5, compare="dcm,coir,baseline")
    _subcommand(sub, "bench", cmd_bench, "wall-clock timing sweep",
                (*_FIT_OPTIONS, "--label-kind", "--output", "--eta", "--sizes", "--compare"),
                gamma=0.5, compare="fastdcm")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        if args.input and not args.model:
            parser.error("--input needs --model: eval without --model runs the "
                         "synthetic protocol and reads no file")
        if args.model and not (args.input and args.train_domains):
            parser.error("--model needs --input and --train-domains")
        given = [o for o in _PROTOCOL_OPTIONS
                 if any(a == o or a.startswith(o + "=") for a in argv)]
        if args.model and given:
            parser.error(f"eval --model does not read {', '.join(given)} "
                         "(only the synthetic protocol does)")
    if "compare" in args:
        allowed = ALGORITHMS if args.command == "eval" else FITTERS
        unknown = [a for a in args.compare if a not in allowed]
        if unknown:
            parser.error(f"--compare: unknown algorithm {unknown[0]!r} "
                         f"(choose from {', '.join(allowed)})")
    if "M" in args:
        named = args.compare if "compare" in args else (args.algorithm,)
        if args.m > args.M and {"fastdcm", "fastcoir"} & set(named):
            parser.error(f"m={args.m} must not exceed M={args.M}")
    try:
        return args.func(args)
    except (CovminError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
