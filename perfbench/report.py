"""Turning a run's measurements into the named metrics the benchmark prints."""

from __future__ import annotations

import resource
import sys
from typing import Dict, List, Sequence, Tuple

from loop import OpResult
from percentiles import summarize
from spans import Tracer

__all__ = [
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "end_to_end_metrics",
    "layer_metrics",
    "peak_rss_mb",
    "self_time_errors",
]

#: ``name -> unit`` of every end-to-end metric, reported untraced.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers as span-name prefixes; ``bench`` is the op root's own time.
LAYERS = (
    "bench",
    "sql",
    "workloads",
    "storage",
    "catalog",
    "core",
    "optimizer",
    "execution",
    "analysis",
    "lint",
)

_LINT_PASSES = ("rules", "dataflow", "effects", "concurrency", "perf", "contracts")

#: ``name -> (unit, better)`` of every per-layer metric, reported traced.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sql.parse_us": ("us", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "storage.load_s": ("s", "lower"),
    "catalog.analyze_s": ("s", "lower"),
    "storage.rows_loaded": ("count", "lower"),
    "core.closure_us": ("us", "lower"),
    "core.estimator_build_us": ("us", "lower"),
    "core.estimate_order_us": ("us", "lower"),
    "core.eligible_calls": ("count", "lower"),
    "core.eligible_s": ("s", "lower"),
    "core.join_calls": ("count", "lower"),
    "core.join_states_calls": ("count", "lower"),
    "core.estimator_s": ("s", "lower"),
    "optimizer.enumerate_s": ("s", "lower"),
    "optimizer.cost_calls": ("count", "lower"),
    "optimizer.cost_s": ("s", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "execution.columnar_s": ("s", "lower"),
    "execution.parallel_w1_s": ("s", "lower"),
    "execution.parallel_wN_s": ("s", "lower"),
    "execution.row_s": ("s", "lower"),
    "execution.output_rows": ("count", "higher"),
    "execution.rows_out_total": ("count", "lower"),
    "execution.output_ratio": ("ratio", "higher"),
    "execution.comparisons": ("count", "lower"),
    "execution.pages_read": ("count", "lower"),
    "analysis.reference_plan_us": ("us", "lower"),
    "analysis.truth_s": ("s", "lower"),
    "analysis.truth_cache_hit_ratio": ("ratio", "higher"),
    "analysis.truth_cache_lookups": ("count", "lower"),
    "analysis.estimate_share": ("ratio", "lower"),
    "analysis.degraded_records": ("count", "lower"),
    **{f"lint.pass_s.{name}": ("s", "lower") for name in _LINT_PASSES},
    "lint.cache.file_hit_ratio": ("ratio", "higher"),
    "lint.cache.component_hit_ratio": ("ratio", "higher"),
    **{f"self_ms.{layer}": ("ms", "lower") for layer in LAYERS},
    "trace.ops": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def end_to_end_metrics(
    setup_seconds: Sequence[float],
    results: Sequence[OpResult],
    elapsed: float,
    peak_mb: float,
) -> Dict[str, Dict[str, object]]:
    """The untraced metrics, each with its unit and sample count."""
    ops_ms = summarize([r.seconds * 1000.0 for r in results])
    setup = summarize(list(setup_seconds))
    return {
        "setup_s": {"value": setup["p50"], "unit": "s", "n": setup["n"]},
        "op_ms_p50": {"value": ops_ms["p50"], "unit": "ms", "n": ops_ms["n"]},
        "ops_per_s": {"value": len(results) / elapsed, "unit": "1/s", "n": len(results)},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB", "n": 1},
        **{
            f"op_ms_{key}": {"value": value, "unit": "ms", "n": ops_ms["n"]}
            for key, value in ops_ms.items()
            if key not in ("n", "p50")
        },
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    tracer: Tracer,
    setup_tracer: Tracer,
    report: Dict[str, object],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload never enters the layer.

    Times and counts of calls made inside ops are means per op (or per
    call, for the ``_us`` metrics and the execution engines).  Data
    generation, loading and ANALYZE happen either in ops (``eval_sweep``)
    or only in set-up (the other workloads); in the latter case they are
    read from one traced set-up instead.
    """
    ops = tracer.op_roots()
    n = len(ops)
    totals, calls, counts = tracer.totals, tracer.calls, tracer.counts

    def per_call_us(name: str) -> float:
        return _per(totals.get(name, 0.0), calls.get(name, 0)) * 1e6

    def per_op(name: str) -> float:
        return _per(totals.get(name, 0.0), n)

    def per_op_calls(name: str) -> float:
        return _per(calls.get(name, 0), n)

    metrics: Dict[str, float] = {
        "sql.parse_us": per_call_us("sql.parse"),
        "core.closure_us": per_call_us("core.closure"),
        "core.estimator_build_us": per_call_us("core.estimator_build"),
        "core.estimate_order_us": per_call_us("core.estimate_order"),
        "core.eligible_calls": per_op_calls("core.eligible"),
        "core.eligible_s": per_op("core.eligible"),
        "core.join_calls": per_op_calls("core.join"),
        "core.join_states_calls": per_op_calls("core.join_states"),
        "optimizer.enumerate_s": per_op("optimizer.enumerate"),
        "optimizer.cost_calls": per_op_calls("optimizer.cost"),
        "optimizer.cost_s": per_op("optimizer.cost"),
        "optimizer.self_s": _per(tracer.self_totals.get("optimizer.enumerate", 0.0), n),
        "analysis.reference_plan_us": per_call_us("analysis.reference_plan"),
        "analysis.truth_s": per_op("analysis.truth"),
    }
    source = tracer if calls.get("workloads.generate") else setup_tracer
    generated = source.calls.get("workloads.generate", 0)
    scale = n if source is tracer else 1
    metrics["workloads.generate_s"] = _per(source.totals.get("workloads.generate", 0.0), scale)
    metrics["storage.load_s"] = _per(source.totals.get("storage.load", 0.0), scale)
    metrics["catalog.analyze_s"] = _per(source.totals.get("catalog.analyze", 0.0), scale)
    metrics["storage.rows_loaded"] = (
        _per(source.counts.get("storage.rows_loaded", 0.0), scale) if generated else 0.0
    )

    executions = calls.get("execution.columnar", 0)
    for engine in ("columnar", "parallel_w1", "parallel_wN", "row"):
        metrics[f"execution.{engine}_s"] = _per(
            totals.get(f"execution.{engine}", 0.0), calls.get(f"execution.{engine}", 0)
        )
    if not calls.get("execution.parallel_w1") and calls.get("execution.parallel_wN"):
        # One CPU: the wide column is the one-worker column.
        metrics["execution.parallel_w1_s"] = metrics["execution.parallel_wN_s"]
    for name in ("output_rows", "rows_out_total", "comparisons", "pages_read"):
        metrics[f"execution.{name}"] = _per(counts.get(f"execution.{name}", 0.0), executions)
    metrics["execution.output_ratio"] = _per(
        counts.get("execution.output_rows", 0.0), counts.get("execution.rows_out_total", 0.0)
    )

    layer_self = {layer: 0.0 for layer in LAYERS}
    op_total = 0.0
    for _, _, duration, by_layer in ops:
        op_total += duration
        for layer, seconds in by_layer.items():
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = _per(layer_self[layer], n) * 1000.0
    metrics["core.estimator_s"] = _per(layer_self["core"], n)
    metrics["analysis.estimate_share"] = _per(layer_self["core"], op_total)

    metrics["analysis.truth_cache_lookups"] = float(report.get("truth_cache_lookups", 0))
    metrics["analysis.truth_cache_hit_ratio"] = _per(
        float(report.get("truth_cache_hits", 0)), metrics["analysis.truth_cache_lookups"]
    )
    metrics["analysis.degraded_records"] = float(report.get("degraded_records", 0))
    for name in _LINT_PASSES:
        metrics[f"lint.pass_s.{name}"] = float(report.get(f"pass_s.{name}", 0.0))
    for kind in ("file", "component"):
        metrics[f"lint.cache.{kind}_hit_ratio"] = float(report.get(f"{kind}_hit_ratio", 0.0))
    metrics["trace.ops"] = float(n)
    metrics["trace.overhead_ratio"] = overhead_ratio
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER}


def self_time_errors(tracer: Tracer, rel_tol: float = 1e-9) -> List[Tuple[str, str]]:
    """Traced ops whose layer self times do not add up to their duration."""
    errors = []
    for op_id, _, duration, by_layer in tracer.op_roots():
        total = sum(by_layer.values())
        if abs(total - duration) > rel_tol * max(duration, 1e-9) + 1e-12:
            errors.append((op_id, f"layer self times sum to {total!r}, op took {duration!r}"))
    return errors
