"""Span tracing around rttsync's public functions, for the traced run.

Each call of a wrapped function records one span: name, start, end, the span
that was open when it started (its parent) and the benchmark operation it
belongs to. Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

import numpy as np

PACKAGE = "rttsync"
REPLAY_LIMIT = 6  # WLS calls kept for the coarse-search replay

# Public functions wrapped in the traced run, by "<module>.<function>".
# edge_sim and analysis stay out: they run in under a millisecond and no
# open work targets them.
LAYERS = (
    "montecarlo.run_sweep",
    "model.generate_series",
    "estimators.robust_weights",
    "estimators.preprocess_outliers",
    "estimators.uls_estimate",
    "estimators.pcp_estimate",
    "estimators.wls_estimate",
    "io.read_series",
    "io.estimate_to_csv",
    "io.atomic_write_text",
    "cli.cli_main",
)

# Per-layer metrics with their units; every layer also reports the
# COMMON fields. The traced run prints all of them on every workload, with
# zeros for layers the workload never calls.
COMMON = (("calls", "count"), ("busy_ms", "ms"), ("ms_p50", "ms"),
          ("share", "frac"), ("failed", "count"))
EXTRA = (
    ("estimators.wls_estimate.coarse_ms_p50", "ms"),
    ("estimators.wls_estimate.refine_ms_p50", "ms"),
    ("estimators.wls_estimate.grid_points", "count"),
    ("estimators.pcp_estimate.periodogram_evals", "count"),
    ("montecarlo.run_sweep.self_ms_per_trial", "ms"),
    ("estimators.robust_weights.downweighted_frac", "frac"),
    ("estimators.preprocess_outliers.replaced_frac", "frac"),
    ("io.read_series.bytes", "bytes"),
    ("cli.cli_main.self_ms_p50", "ms"),
    ("process.minor_faults_per_op", "count"),
    ("process.sys_share", "frac"),
    ("trace.accounted_frac", "frac"),
    ("trace.overhead.ops_per_s", "frac"),
    ("trace.overhead.op_ms_p50", "frac"),
    ("trace.overhead.op_ms_min", "frac"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.{field}": unit for layer in LAYERS for field, unit in COMMON}
    units.update(EXTRA)
    return units


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "failed")

    def __init__(self, name, start, end, parent=None, op=0, failed=False):
        self.name, self.start, self.end = name, start, end
        self.parent, self.op, self.failed = parent, op, failed

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.failed]


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for lo, hi in sorted((max(spans[k].start, span.start), min(spans[k].end, span.end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Wraps functions so that each call records a Span; `counts` collects
    the per-layer work counters the hooks compute from arguments and results."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.counts: dict = {}
        self.wls_samples: list = []  # bound arguments of WLS calls, kept for replay
        self._stack: list[int] = []
        self._patched: list = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Replace each layer function wherever the package binds it by name,
        e.g. montecarlo binds the estimator names at import."""
        for layer in LAYERS:
            modname, attr = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
            wrapper = self.wrap(layer, original, HOOKS.get(layer))
            for name, module in list(sys.modules.items()):
                in_package = name == PACKAGE or name.startswith(PACKAGE + ".")
                if in_package and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# Work counters. Counts marked "computed" are derived from the arguments
# (grid sizes and record length), not timed, so they repeat exactly.

def _refine_shape(estimators_module):
    levels = getattr(estimators_module, "_REFINE_LEVELS", 0)
    points = getattr(estimators_module, "_REFINE_POINTS", 0)
    factor = getattr(estimators_module, "_REFINE_FACTOR", 1)
    return levels, points, factor


def _grids_and_refine(bound):
    args = bound.arguments
    return args.get("grids"), args.get("refine", True), len(args["series"])


def _wls_hook(tracer, bound, result):
    grids, refine, _ = _grids_and_refine(bound)
    if grids is not None:
        n_phi = grids.Phi.size if hasattr(grids, "Phi") else 1
        levels, points, factor = _refine_shape(sys.modules[f"{PACKAGE}.estimators"])
        # computed: coarse F x Phi, then per level a local frequency grid
        # against the phase grid refined once by `factor`
        extra = levels * points * n_phi * factor if refine else 0
        tracer.add("wls.grid_points", grids.F.size * n_phi + extra)
    if len(tracer.wls_samples) < REPLAY_LIMIT:
        tracer.wls_samples.append(bound)


def _pcp_hook(tracer, bound, result):
    grids, refine, n = _grids_and_refine(bound)
    if grids is not None:
        levels, points, _ = _refine_shape(sys.modules[f"{PACKAGE}.estimators"])
        freqs = int(np.count_nonzero(grids.F > 0.0)) + (levels * points if refine else 0)
        tracer.add("pcp.periodogram_evals", freqs * n)  # computed


def _weights_hook(tracer, bound, result):
    tracer.add("weights.down", int(result.n_downweighted))
    tracer.add("weights.n", int(result.w.size))


def _preprocess_hook(tracer, bound, result):
    before = bound.arguments["series"].values
    tracer.add("preprocess.replaced", int(np.count_nonzero(result.values != before)))
    tracer.add("preprocess.n", int(before.size))


def _read_hook(tracer, bound, result):
    tracer.add("read.bytes", os.path.getsize(bound.arguments["path"]))


HOOKS = {
    "estimators.wls_estimate": _wls_hook,
    "estimators.pcp_estimate": _pcp_hook,
    "estimators.robust_weights": _weights_hook,
    "estimators.preprocess_outliers": _preprocess_hook,
    "io.read_series": _read_hook,
}


def replay_wls(tracer: Tracer, wls_estimate, budget_s: float) -> tuple[list, list]:
    """Re-run sampled WLS calls untraced, each as called and then with
    refine=False, back to back so that both see the same machine speed;
    returns the coarse times and the refinement times (full minus coarse), in ms."""
    coarse, refine = [], []
    if "refine" not in inspect.signature(wls_estimate).parameters:
        return coarse, refine
    deadline = time.perf_counter() + budget_s
    for bound in tracer.wls_samples:
        if time.perf_counter() > deadline:
            break
        t0 = time.perf_counter()
        wls_estimate(**bound.arguments)
        t1 = time.perf_counter()
        wls_estimate(**dict(bound.arguments, refine=False))
        t2 = time.perf_counter()
        coarse.append(1e3 * (t2 - t1))
        refine.append(1e3 * ((t1 - t0) - (t2 - t1)))
    return coarse, refine


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, trials: int, coarse_ms, refine_ms) -> dict:
    """Per-layer metrics from the recorded spans. `wall_s` is the time spent
    inside the benchmark's operations during the traced window."""
    selfs = self_times(tracer.spans)
    by_layer = {layer: ([], [], 0) for layer in LAYERS}
    for span, own in zip(tracer.spans, selfs):
        durations, own_times, failed = by_layer[span.name]
        durations.append(span.end - span.start)
        own_times.append(own)
        by_layer[span.name] = (durations, own_times, failed + span.failed)

    metrics = {}
    for layer, (durations, own_times, failed) in by_layer.items():
        busy_ms = 1e3 * sum(own_times)
        metrics[f"{layer}.calls"] = len(durations)
        metrics[f"{layer}.busy_ms"] = busy_ms
        metrics[f"{layer}.ms_p50"] = 1e3 * _median(durations)
        metrics[f"{layer}.share"] = _ratio(busy_ms, 1e3 * wall_s)
        metrics[f"{layer}.failed"] = failed

    c = tracer.counts
    metrics["estimators.wls_estimate.coarse_ms_p50"] = _median(coarse_ms)
    metrics["estimators.wls_estimate.refine_ms_p50"] = _median(refine_ms)
    metrics["estimators.wls_estimate.grid_points"] = _ratio(
        c.get("wls.grid_points", 0), metrics["estimators.wls_estimate.calls"])
    metrics["estimators.pcp_estimate.periodogram_evals"] = _ratio(
        c.get("pcp.periodogram_evals", 0), metrics["estimators.pcp_estimate.calls"])
    metrics["montecarlo.run_sweep.self_ms_per_trial"] = _ratio(
        metrics["montecarlo.run_sweep.busy_ms"], trials)
    metrics["estimators.robust_weights.downweighted_frac"] = _ratio(
        c.get("weights.down", 0), c.get("weights.n", 0))
    metrics["estimators.preprocess_outliers.replaced_frac"] = _ratio(
        c.get("preprocess.replaced", 0), c.get("preprocess.n", 0))
    metrics["io.read_series.bytes"] = _ratio(
        c.get("read.bytes", 0), metrics["io.read_series.calls"])
    cli_self = [1e3 * own for span, own in zip(tracer.spans, selfs) if span.name == "cli.cli_main"]
    metrics["cli.cli_main.self_ms_p50"] = _median(cli_self)
    metrics["trace.accounted_frac"] = _ratio(sum(selfs), wall_s)
    return metrics
