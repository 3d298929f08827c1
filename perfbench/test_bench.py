"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest perfbench -q

Checks that every end-to-end and per-layer metric prints by name with its
unit, that the output checks fire on deliberately corrupted outputs (and
make the command exit nonzero), that per-layer self times account for the
traced wall time, and that the command fails without a result when the
package sources are missing.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

workloads = run.load_workloads()
import covmin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_cwd, *args):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=tmp_cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke_workload(name):
    return workloads.WORKLOADS[name](0, workloads.SMOKE_SIZES[name], str(run.OUT))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_prints_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
        if trace == 0:
            values = [m["value"] for m in result["metrics"].values()]
            assert all(np.isfinite(v) and v > 0 for v in values)


def test_units_match_the_benchmark_spec():
    assert run.UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_residual_check_fires_on_corrupted_eigenvectors():
    w = smoke_workload("dense-continuous")
    w.setup()
    w.fit_phase()
    w.final_checks()
    assert w.failures == []
    w.model.coefficients[:, 0] += 1e-3 * np.abs(w.model.coefficients[:, 0]).max()
    w.final_checks()
    assert len(w.failures) == 1 and w.failures[0].startswith("eigenpair residual")


def test_round_trip_and_output_checks_fire(monkeypatch):
    w = smoke_workload("landmark")
    w.setup()
    w.fit_phase()
    w.roundtrip()
    assert w.failures == []

    real_load = covmin.load_model

    def corrupted_load(path):
        model = real_load(path)
        model.coefficients[0, 0] += 1e-6
        return model

    monkeypatch.setattr(covmin, "load_model", corrupted_load)
    w.roundtrip()
    assert len(w.failures) == 1 and w.failures[0].startswith("round trip")

    w._check_output(np.full((w.model.m, 1), np.nan), w.model, 1)
    w._check_output(np.zeros((w.model.m, 2)), w.model, 1)
    assert len(w.failures) == 3


def test_ordering_check_fires():
    good = {"dcm": 0.70, "coir": 0.70, "baseline": 0.67}
    assert workloads.ordering_holds(good)
    assert not workloads.ordering_holds(dict(good, baseline=0.69))
    assert not workloads.ordering_holds(dict(good, coir=0.72))


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    real_load = covmin.load_model

    def corrupted_load(path):
        model = real_load(path)
        model.coefficients *= 2.0
        return model

    monkeypatch.setattr(covmin, "load_model", corrupted_load)
    code = run.main(["--workload", "landmark", "--seed", "0", "--seconds", "0.1",
                     "--trace", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_self_times_account_for_traced_wall_time(workload):
    smoke(workload, 1)
    doc = json.loads((run.OUT / f"trace-{workload}-seed0.json").read_text())
    summary = doc["summary"]
    assert summary["absent"] == []
    assert summary["self_total_s"] == pytest.approx(summary["root_wall_s"], rel=1e-9)
    assert summary["root_wall_s"] <= doc["traced_wall_s"]
    assert summary["root_wall_s"] >= 0.95 * doc["traced_wall_s"]
    span = doc["spans"][-1]
    assert set(span) == {"id", "name", "start", "end", "parent", "workload", "phase"}
    roots = {s["name"] for s in doc["spans"] if s["parent"] < 0}
    assert {"setup", "fit", "roundtrip", "transform_b1", "transform_b1000"} <= roots


def test_tracer_reports_missing_layers_and_restores_bindings(monkeypatch):
    original = covmin.dcm.gen_eig
    monkeypatch.delattr(covmin.linalg, "gen_eig")
    tracer = tracing.Tracer("unit")
    tracer.install()
    try:
        assert tracer.absent == ["linalg.gen_eig"]
        assert covmin.dcm.gen_eig is original
        assert getattr(covmin.dcm.fit_dcm, "covmin_trace_wrapper", False)
        assert covmin.fit_dcm is covmin.dcm.fit_dcm
    finally:
        tracer.remove()
    assert not hasattr(covmin.fit_dcm, "covmin_trace_wrapper")
    metrics = tracer.layer_metrics()
    assert metrics["linalg.gen_eig.calls"]["value"] == 0


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
                           "--workload", "landmark", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
