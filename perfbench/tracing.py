"""Outside-in layer tracing for the benchmark.

Tracer.install() replaces each public covmin function named in LAYERS with
a timing wrapper in every covmin module that binds it, so a call such as
fit_dcm -> build_operator_pair -> gen_eig records nested spans without any
change to the package. Spans stay in memory and are written once, when the
run ends. Tracer.remove() restores the original functions and verifies that
no wrapper is left behind.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: <module>.<function> of every traced layer boundary, module relative to covmin
LAYERS = (
    "datagen.synth_generate",
    "datagen.split_domains",
    "kernels.gram",
    "kernels.center_gram",
    "kernels.cross_gram",
    "kernels.center_cross_from_means",
    "linalg.gen_eig",
    "linalg.sym_eig",
    "linalg.ridge_inverse",
    "dcm.build_operator_pair",
    "dcm.fit_dcm",
    "dcm.fit_coir",
    "dcm.transform",
    "dcm.save_model",
    "dcm.load_model",
    "fastpath.sample_landmarks",
    "fastpath.build_sketch",
    "fastpath.compute_omega",
    "fastpath.fit_fastdcm",
    "evaluate.krr_fit",
    "evaluate.run_experiment",
)


def _gram_bytes(args, kwargs):
    n = len(args[1] if len(args) > 1 else kwargs["items"])
    return "kernels.gram.bytes", 8 * n * n


def _cross_gram_bytes(args, kwargs):
    X = args[1] if len(args) > 1 else kwargs["X"]
    Z = args[2] if len(args) > 2 else kwargs["Z"]
    return "kernels.cross_gram.bytes", 8 * len(X) * len(Z)


def _gen_eig_n(args, kwargs):
    A = args[0] if args else kwargs["A"]
    return "linalg.gen_eig.n_max", len(A)


#: computed sizes: layer -> function of the call's arguments giving (metric, value)
_SIZES = {
    "kernels.gram": _gram_bytes,
    "kernels.cross_gram": _cross_gram_bytes,
    "linalg.gen_eig": _gen_eig_n,
}

#: metric name -> how values of successive calls combine
_COMBINE = {
    "kernels.gram.bytes": sum,
    "kernels.cross_gram.bytes": sum,
    "linalg.gen_eig.n_max": max,
}


def _covmin_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "covmin" or name.startswith("covmin."))]


class Tracer:
    """Span recorder for one workload run.

    A span is [name, start, end, parent index (-1 for a root), phase].
    Root spans are the benchmark's own phases; every other span is a call
    into a covmin layer.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.phase: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._sizes: dict[str, list] = {name: [] for name in _COMBINE}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, phase: str):
        """Root span for one of the benchmark's own phases."""
        self.phase = phase
        rec = self._open(phase)
        try:
            yield
        finally:
            self._close(rec)
            self.phase = None

    def _wrap(self, layer: str, fn):
        size = _SIZES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if size is not None:
                    metric, value = size(args, kwargs)
                    self._sizes[metric].append(value)

        traced.covmin_trace_wrapper = True
        return traced

    def install(self) -> None:
        """Wrap every layer that exists; record the ones that do not."""
        modules = _covmin_modules()
        for layer in LAYERS:
            modname, fname = layer.split(".")
            home = sys.modules.get(f"covmin.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched binding and check that none is left."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for module in _covmin_modules():
            for attr, value in vars(module).items():
                if getattr(value, "covmin_trace_wrapper", False):
                    raise RuntimeError(f"trace wrapper left on {module.__name__}.{attr}")

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, dict]:
        """<layer>.self_s and <layer>.calls for every layer, plus computed sizes.

        A layer that was never called, or that no longer exists in covmin,
        reports zero; the absent ones are listed in the trace file.
        """
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            if span[0] in self_s:
                self_s[span[0]] += own
                calls[span[0]] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = {"value": self_s[layer], "unit": "s"}
            out[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
        for metric, combine in _COMBINE.items():
            values = self._sizes[metric]
            unit = "bytes" if metric.endswith(".bytes") else "count"
            out[metric] = {"value": combine(values) if values else 0, "unit": unit}
        return out

    def summary(self) -> dict:
        """Per-phase wall time and self time of each layer within the phase."""
        phases: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, parent, phase = span
            entry = phases.setdefault(phase, {"wall_s": 0.0, "self_s": {}})
            if parent < 0:
                entry["wall_s"] += end - start
            entry["self_s"][name] = entry["self_s"].get(name, 0.0) + own
        return {
            "root_wall_s": sum(s[2] - s[1] for s in self.spans if s[3] < 0),
            "self_total_s": sum(self.self_times()),
            "absent": list(self.absent),
            "phases": phases,
        }

    def write(self, path, extra: dict) -> None:
        """Write every span plus the summary as one JSON document."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"id": i, "name": name, "start": start - t0, "end": end - t0,
             "parent": parent, "workload": self.workload, "phase": phase}
            for i, (name, start, end, parent, phase) in enumerate(self.spans)
        ]
        doc = dict(extra, summary=self.summary(), spans=spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)
