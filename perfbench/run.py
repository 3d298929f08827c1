#!/usr/bin/env python3
"""Benchmark of covmin's dense and landmark solvers on three workloads.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 15 --trace 0

Workloads: protocol, dense-continuous, landmark (see README.md). Run from
any directory; the package is imported from the src/ directory beside
perfbench/, and the command fails without a result when it is missing.

--trace 0 repeats the workload's pass for --seconds seconds with no
instrumentation and reports the end-to-end metrics. --trace 1 runs one
untraced and one traced pass and reports per-layer self times and call
counts (see tracing.py). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is the environment record. Both, with the sample counts, are
also written under perfbench/out/. The exit code is 0 only when every
operation succeeded and every output check held.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS reads its thread count once, when numpy loads (in load_workloads). One
# thread: on a shared 2-CPU host two threads doubled the run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 3

#: end-to-end metric -> unit; BENCHMARK.json lists the same names and units
UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "fit_s": "s",
    "transform_b1_p90_ms": "ms",
    "transform_b1000_qps": "1/s",
    "model_bytes": "bytes",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "accuracy_fast": "fraction",
    "rmse": "target",
}

WORKLOAD_NAMES = ("protocol", "dense-continuous", "landmark")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_workloads():
    """Import covmin from this checkout's src/ and return the workloads module."""
    if not (SRC / "covmin" / "__init__.py").is_file():
        raise SystemExit(f"covmin sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import covmin
    if Path(covmin.__file__).resolve().parent != SRC / "covmin":
        raise SystemExit(f"imported covmin from {covmin.__file__}, not from {SRC}")
    import workloads
    return workloads


def make_workload(workloads, args):
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES
    OUT.mkdir(exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, sizes[args.workload], str(OUT))


def setup_probe(args) -> float:
    """Time import plus input generation in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- environment record ----------------------------------------------------

def _blas_threads():
    import ctypes

    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
    }


# -- the two kinds of run ----------------------------------------------------

def run_untraced(w, args) -> tuple[dict, dict]:
    import numpy as np
    setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    w.setup()
    t0 = time.perf_counter()
    while True:
        w.run_pass()
        if time.perf_counter() - t0 >= args.seconds:
            break
    quality = w.quality()
    w.final_checks()
    s = w.samples
    b1_ms = np.concatenate(s["b1_ms"])
    b1000_s = np.concatenate(s["b1000_s"])
    # fits and batch-1 calls are gated at their 90th percentile: this host
    # switches between a fast and a slow state every few seconds, and the
    # median (or mean) of short calls follows the share of time spent in
    # each, while the 90th percentile sits in the slow state in every run
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(s["pass_s"]),
        "fit_s": float(np.percentile(s["fit_s"], 90)),
        "transform_b1_p90_ms": float(np.percentile(b1_ms, 90)),
        "transform_b1000_qps": w.size.batch * len(b1000_s) / float(np.sum(b1000_s)),
        "model_bytes": w.model_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    counts = {"setup_probes": len(setup), "b1_calls": len(b1_ms),
              "b1000_calls": len(b1000_s), "passes": len(s["pass_s"]), "fits": len(s["fit_s"])}
    # recorded, not gated: their run-to-run spread on this host reached the
    # largest bound a metric may have
    recorded = {f"transform_b1_p{q}_ms": float(np.percentile(b1_ms, q)) for q in (50, 99)}
    recorded["transform_b1_mean_ms"] = float(np.mean(b1_ms))
    return metrics, {"samples": counts, "recorded": recorded, "setup_s": setup, "raw": s}


def run_traced(w, args) -> tuple[dict, dict]:
    import tracing
    t0 = time.perf_counter()
    w.setup()
    w.run_pass()
    untraced = time.perf_counter() - t0

    tracer = tracing.Tracer(w.name)
    untraced_phase, w.phase = w.phase, tracer.span
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.span("setup"):
            w.setup()
        w.run_pass()
        traced = time.perf_counter() - t0
    finally:
        tracer.remove()
        w.phase = untraced_phase
    w.final_checks()
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_s"] = {"value": traced - untraced, "unit": "s"}
    walls = {"traced_wall_s": traced, "untraced_wall_s": untraced}
    tracer.write(OUT / f"trace-{w.name}-seed{args.seed}.json",
                 {"workload": w.name, "seed": args.seed, **walls})
    return metrics, dict(walls, summary=tracer.summary())


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        t0 = time.perf_counter()
        make_workload(load_workloads(), args).setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    w = make_workload(load_workloads(), args)
    env = environment(args)
    metrics, detail = {}, {}
    failed_ops = 0
    try:
        run = run_traced if args.trace else run_untraced
        metrics, detail = run(w, args)
    except Exception:  # report the failure as a result instead of a bare traceback
        traceback.print_exc()
        failed_ops = 1
    for failure in w.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    failed = failed_ops + len(w.failures)
    result = {"correct": failed == 0, "attempted": max(w.attempted, 1),
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "result": result, "failures": w.failures, **detail}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
