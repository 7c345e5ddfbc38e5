"""The percentile and sample-count rule."""

import pytest

from percentiles import MIN_BEYOND, percentile, summarize, tail_percentile


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    assert percentile([10, 20], 90) == pytest.approx(19.0)


@pytest.mark.parametrize("bad", [[], None])
def test_percentile_rejects_empty(bad):
    with pytest.raises((ValueError, TypeError)):
        percentile(bad, 50)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, None),
        (99, None),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= MIN_BEYOND - 1e-9


def test_summarize_reports_median_alone_below_the_rule():
    assert summarize([5.0, 1.0, 3.0]) == {"n": 3, "p50": 3.0}


def test_summarize_adds_the_qualifying_tail():
    values = [float(v) for v in range(1, 101)]
    summary = summarize(values)
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    assert summary["p90"] == pytest.approx(90.1)
    assert "p99" not in summary
