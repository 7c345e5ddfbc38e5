"""Assembling the named metrics from a run's measurements."""

from loop import OpResult
from report import END_TO_END, PER_LAYER, end_to_end_metrics, layer_metrics, self_time_errors
from spans import Tracer


def _results(count):
    return [OpResult(f"0/{i}", str(i), 0.001 * (i + 1)) for i in range(count)]


def test_end_to_end_carries_units_and_sample_counts():
    metrics = end_to_end_metrics([2.0, 1.0, 3.0], _results(99), elapsed=2.0, peak_mb=50.0)
    assert {name: metrics[name]["unit"] for name in END_TO_END} == END_TO_END
    assert metrics["setup_s"]["value"] == 2.0 and metrics["setup_s"]["n"] == 3
    assert metrics["op_ms_p50"]["n"] == 99
    assert metrics["ops_per_s"]["value"] == 49.5
    assert "op_ms_p90" not in metrics


def test_tail_latency_appears_once_ten_samples_lie_beyond_it():
    metrics = end_to_end_metrics([1.0], _results(100), elapsed=1.0, peak_mb=1.0)
    assert metrics["op_ms_p90"]["n"] == 100


def test_every_per_layer_metric_is_reported_even_for_untouched_layers():
    tracer = Tracer()
    with tracer.root("op"):
        with tracer.span("sql.parse"):
            pass
    values = layer_metrics(tracer, Tracer(), {}, overhead_ratio=0.9)
    assert list(values) == list(PER_LAYER)
    assert values["trace.ops"] == 1.0
    assert values["execution.columnar_s"] == 0.0
    assert values["sql.parse_us"] > 0.0
    assert self_time_errors(tracer) == []
