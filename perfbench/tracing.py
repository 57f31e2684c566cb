"""Spans around calls into the library's layers, installed from outside.

`Tracer.install` rebinds every public function of the library's modules, in
every module namespace that holds it (so `cli.fit_exponential` and
`fitting.fit_exponential` are both covered), with a wrapper that records a
span: name, start, end, parent span, thread id and the thread's CPU time
inside the span. Spans stay in memory until the run writes them out.
`layer_metrics` turns the spans of the traced passes into the per-layer
table.

`fit` and `compare` run stories on a thread pool, where a span's wall time
includes waiting for the interpreter lock. So per-call costs and sums are
thread CPU time, and wall time is used only as coverage: the union of a
layer's span intervals.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
import types

import numpy as np

import ultradiffusion
from ultradiffusion import (
    baselines,
    checks,
    cli,
    fitting,
    generator,
    oracle,
    serialize,
    spectral,
    traces,
    ultrametric,
)

MODULES = (cli, traces, fitting, baselines, ultrametric, generator, spectral, oracle, serialize, checks)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

# Sums of span CPU time over named functions of one layer.
_SPAN_SUMS = {
    "traces.parse_s": ("traces.parse_trace_csv",),
    "traces.curve_s": ("traces.empirical_curve",),
    "traces.aggregate_mean_s": ("traces.aggregate_mean",),
    "fitting.fit_s": ("fitting.fit_exponential",),
    "baselines.fit_linear_s": ("baselines.fit_linear",),
    "ultrametric.build_s": ("ultrametric.build_from_trace", "ultrametric.uniform_chain"),
    "ultrametric.verify_s": ("ultrametric.verify_ultrametric",),
    "generator.build_s": ("generator.build_generator",),
    "generator.check_rate_s": ("generator.check_rate_ultrametricity",),
    "spectral.chain_spectrum_s": ("spectral.chain_spectrum",),
    "spectral.autocorr_chain_s": ("spectral.autocorrelation_chain",),
    "spectral.tree_autocorr_s": ("spectral.tree_autocorrelation",),
    "spectral.space_from_tree_s": ("spectral.space_from_tree",),
    "spectral.survival_s": ("spectral.survival_probability",),
    "oracle.integrate_s": ("oracle.integrate_master_equation",),
    "oracle.numeric_spectrum_s": ("oracle.numeric_spectrum",),
    "serialize.curve_tsv_s": ("serialize.write_fit_curve_tsv", "serialize.write_curve_tsv"),
    "serialize.matrix_tsv_s": ("serialize.write_distance_tsv", "serialize.write_generator_tsv"),
}
# Spans of these functions that raised.
_ERROR_COUNTS = {
    "fitting.fit_errors": "fitting.fit_exponential",
    "fitting.infer_errors": "fitting.infer_params",
    "spectral.space_from_tree_errors": "spectral.space_from_tree",
}
# Values a pass reports from its outputs rather than from spans.
PASS_VALUES = (
    ("fitting.h2_rel_err_p50", "ratio", "lower"),
    ("fitting.tN_rel_err_p50", "ratio", "lower"),
    ("checks.run_all_s", "s", "lower"),
    *((f"checks.{name}_s", "s", "lower") for name in checks.CHECK_NAMES),
    ("bench.relax_sweep_s", "s", "lower"),
)

PER_LAYER = (
    *(
        metric
        for layer in LAYERS
        for metric in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.busy_s", "s", "lower"),
            (f"{layer}.wall_s", "s", "lower"),
            (f"{layer}.busy_share", "ratio", "lower"),
        )
    ),
    *((name, "s", "lower") for name in _SPAN_SUMS),
    *((name, "count", "lower") for name in _ERROR_COUNTS),
    ("cli.main_s", "s", "lower"),
    ("cli.outside_layers_s", "s", "lower"),
    ("traces.parse_rows_per_s", "rows/s", "higher"),
    ("fitting.fit_p50_ms", "ms", "lower"),
    ("fitting.fit_p99_ms", "ms", "lower"),
    ("fitting.fit_memoryless_p50_ms", "ms", "lower"),
    ("fitting.fit_memoryless_share", "ratio", "lower"),
    ("fitting.fit_samples", "count", "higher"),
    ("ultrametric.dense_bytes", "bytes", "lower"),
    ("serialize.bytes_written", "bytes", "lower"),
    ("serialize.files_written", "count", "lower"),
    *PASS_VALUES,
    ("bench.traced_pass_s", "s", "lower"),
    ("bench.traced_pass_cpu_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


class Tracer:
    """Collects spans from wrapped library functions, across threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_index = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._story_of: dict[int, str] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self, pass_index: int) -> None:
        self.pass_index = pass_index
        self._story_of.clear()
        wrapped: dict[object, object] = {}
        for module in MODULES:
            for attr, func in list(vars(module).items()):
                if (
                    isinstance(func, types.FunctionType)
                    and not attr.startswith("_")
                    and func.__module__.rsplit(".", 1)[-1] in LAYERS
                    and func.__module__.startswith(ultradiffusion.__name__ + ".")
                ):
                    if func not in wrapped:
                        wrapped[func] = self._wrap(func)
                    self._saved.append((module, attr, func))
                    setattr(module, attr, wrapped[func])

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def _wrap(self, func):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        tag = _TAGS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span is caused by whatever the main
            # thread is inside (cli.main waiting on the pool).
            parent = stack[-1] if stack else (self._main_stack or [None])[-1]
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent,
                "thread": threading.get_ident(),
                "pass": self.pass_index,
            }
            stack.append(span["id"])
            cpu = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.thread_time() - cpu
                stack.pop()
                self.spans.append(span)
            if tag is not None:
                span.update(tag(self, args, result))
            return result

        return traced


def _tag_curve(tracer, args, result):
    tracer._story_of[id(result)] = args[0].story_id
    return {"story": args[0].story_id}


def _tag_fit(tracer, args, result):
    return {"story": tracer._story_of.get(id(args[0]))}


_TAGS = {
    "traces.empirical_curve": _tag_curve,
    "fitting.fit_exponential": _tag_fit,
    "traces.parse_trace_csv": lambda tracer, args, result: {"rows": sum(t.count for t in result)},
    "ultrametric.build_from_trace": lambda tracer, args, result: {"states": result.size},
    "ultrametric.uniform_chain": lambda tracer, args, result: {"states": result.size},
    **{
        f"serialize.{name}": lambda tracer, args, result: {"bytes": os.path.getsize(args[0])}
        for name in serialize.__all__
    },
}


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _outermost(spans: list[dict], by_id: dict[int, dict], layer: str) -> list[dict]:
    """Spans of `layer` with no ancestor of the same layer."""
    out = []
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and not parent["name"].startswith(layer + "."):
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out


def _pass_metrics(spans: list[dict], cpu: float) -> dict[str, float]:
    """Per-layer values of one traced pass that used `cpu` seconds of
    process CPU time."""
    by_id = {s["id"]: s for s in spans}
    values: dict[str, float] = {}
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].startswith(layer + ".")]
        busy = sum(s["cpu"] for s in _outermost(mine, by_id, layer))
        values[f"{layer}.calls"] = len(mine)
        values[f"{layer}.busy_s"] = busy
        values[f"{layer}.wall_s"] = _union((s["start"], s["end"]) for s in mine)
        values[f"{layer}.busy_share"] = busy / cpu
    for metric, names in _SPAN_SUMS.items():
        values[metric] = sum(s["cpu"] for s in spans if s["name"] in names)
    for metric, name in _ERROR_COUNTS.items():
        values[metric] = sum(1 for s in spans if s["name"] == name and "error" in s)
    mains = [s for s in spans if s["name"] == "cli.main"]
    values["cli.main_s"] = sum(s["end"] - s["start"] for s in mains)
    outside = 0.0
    for main in mains:
        inner = [
            (max(s["start"], main["start"]), min(s["end"], main["end"]))
            for s in spans
            if not s["name"].startswith("cli.") and s["start"] < main["end"] and s["end"] > main["start"]
        ]
        outside += (main["end"] - main["start"]) - _union(inner)
    values["cli.outside_layers_s"] = outside
    rows = sum(s.get("rows", 0) for s in spans)
    values["traces.parse_rows_per_s"] = rows / values["traces.parse_s"] if rows else 0.0
    values["ultrametric.dense_bytes"] = sum(8 * s.get("states", 0) ** 2 for s in spans)
    written = [s for s in spans if "bytes" in s]
    values["serialize.bytes_written"] = sum(s["bytes"] for s in written)
    values["serialize.files_written"] = len(written)
    return values


def layer_metrics(
    spans: list[dict],
    traced: dict[int, tuple[float, float]],
    untraced: list[float],
    pass_values: list[dict[str, float]],
    memoryless: set[str],
) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, per-call percentiles
    pooled over them. `traced` maps pass index to (wall, process CPU)
    seconds, `untraced` holds the wall times of the untraced passes of the
    same run, and `pass_values` the output-derived values of every pass."""
    per_pass = [
        _pass_metrics([s for s in spans if s["pass"] == k], cpu)
        for k, (_, cpu) in traced.items()
    ]
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    fits = [s for s in spans if s["name"] == "fitting.fit_exponential" and "error" not in s]
    ms = np.array([1e3 * s["cpu"] for s in fits])
    slow = np.array([1e3 * s["cpu"] for s in fits if s.get("story") in memoryless])
    values["fitting.fit_p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    values["fitting.fit_p99_ms"] = float(np.percentile(ms, 99)) if ms.size else 0.0
    values["fitting.fit_memoryless_p50_ms"] = float(np.percentile(slow, 50)) if slow.size else 0.0
    # Share of the fitting CPU time that went to the memoryless stories.
    values["fitting.fit_memoryless_share"] = float(slow.sum() / ms.sum()) if ms.size else 0.0
    values["fitting.fit_samples"] = int(ms.size)
    for name, _, _ in PASS_VALUES:
        seen = [p[name] for p in pass_values if name in p]
        values[name] = statistics.median(seen) if seen else 0.0
    values["bench.traced_pass_s"] = statistics.median(wall for wall, _ in traced.values())
    values["bench.traced_pass_cpu_s"] = statistics.median(cpu for _, cpu in traced.values())
    values["bench.trace_overhead_s"] = values["bench.traced_pass_s"] - statistics.median(untraced)
    return values
