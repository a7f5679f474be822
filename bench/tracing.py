"""Per-layer call tracing from outside the program.

The program binds names with ``from .x import y``, so a function is
reached through every module namespace that imported it.  ``Tracer``
replaces each traced function under every name that refers to it, records
one span per call in memory (name, parent, start, duration, raised or not)
and restores the originals on ``uninstall``.  Self time is a span's
duration minus the time its traced children took.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict

MODULES = ("specfun", "transmon", "modulation", "signal_chain", "rf_network", "fitting", "config", "cli")

# (layer, function): every function the per-layer metrics name
TRACED = (
    ("transmon", "diagonalize"),
    ("transmon", "f01_asymptotic"),
    ("specfun", "hyp2f1"),
    ("specfun", "bessel_j0"),
    ("specfun", "bessel_j1"),
    ("modulation", "s_coeff"),
    ("modulation", "harmonic_series"),
    ("modulation", "avg_frequency"),
    ("modulation", "time_average_oracle"),
    ("modulation", "second_order_shift"),
    ("signal_chain", "spurious_shift_report"),
    ("rf_network", "diplexer_eval"),
    ("rf_network", "network_abcd"),
    ("rf_network", "element_abcd"),
    ("rf_network", "network_response"),
    ("rf_network", "two_port_sweep_csv"),
    ("rf_network", "check_spec"),
    ("fitting", "least_squares"),
    ("fitting", "fit_t1"),
    ("fitting", "fit_ramsey"),
    ("fitting", "fit_rb"),
    ("fitting", "fit_tuning_curve"),
    ("fitting", "fit_beta"),
    ("config", "load_config"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent span index or -1, start s, duration s, raised)
        self.nfev = 0
        self._stack = []  # [span index, child time] of the open spans
        self._t0 = time.perf_counter()
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                spans[index] = (name, parent, start - self._t0, dur, frame[1], raised)
            if name == "fitting.least_squares":
                self.nfev += result.iterations
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("fluxline")] + [
            importlib.import_module(f"fluxline.{m}") for m in MODULES
        ]
        for layer, fname in TRACED:
            original = getattr(importlib.import_module(f"fluxline.{layer}"), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """calls and self_ms per traced function, plus the derived counts."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        raised = defaultdict(int)
        series_cold = set()
        for name, parent, _, dur, child, failed in self.spans:
            calls[name] += 1
            self_s[name] += dur - child
            raised[name] += failed
            if name == "modulation.s_coeff" and parent >= 0:
                series_cold.add(parent)
        out = {}
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
        out["specfun.hyp2f1.failed"] = (raised["specfun.hyp2f1"], "count")
        # a harmonic_series call that computed no coefficient was a cache hit
        n_series = calls["modulation.harmonic_series"]
        hits = n_series - sum(
            1 for i in series_cold if self.spans[i][0] == "modulation.harmonic_series"
        )
        out["modulation.harmonic_series.hit_ratio"] = (hits / n_series if n_series else 0.0, "ratio")
        out["fitting.nfev"] = (self.nfev, "count")
        return out

    def write(self, path):
        """All spans as gzipped CSV: id, parent, name, start_us, dur_us, self_us, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id,parent,name,start_us,dur_us,self_us,raised\n")
            for i, (name, parent, start, dur, child, failed) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start * 1e6:.1f},{dur * 1e6:.1f},{(dur - child) * 1e6:.1f},{int(failed)}\n")
