"""Percentiles with the sample-count rule the benchmark reports under.

Every timing is reported as its median plus the highest tail percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, together with
the sample count.  With fewer than ``MIN_BEYOND / (1 - 0.90)`` samples no
tail percentile qualifies and the median is reported alone.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Union

__all__ = ["MIN_BEYOND", "TAIL_PERCENTILES", "percentile", "summarize", "tail_percentile"]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order statistics.

    Raises:
        ValueError: on an empty sequence or ``p`` outside ``[0, 100]``.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def tail_percentile(count: int) -> Optional[float]:
    """The highest tail percentile with ``MIN_BEYOND`` samples beyond it.

    ``count * (1 - p/100)`` samples lie beyond the ``p``-th percentile; the
    rule asks for at least ``MIN_BEYOND`` of them.  ``None`` when even the
    90th percentile does not qualify.
    """
    for p in TAIL_PERCENTILES:
        # Integer arithmetic on tenths of a percent keeps 1000 samples at
        # p99 exactly on the boundary instead of a hair below it.
        beyond_tenths = count * (1000 - round(p * 10))
        if beyond_tenths >= MIN_BEYOND * 1000:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, Union[float, int]]:
    """``{"n", "p50"}`` plus ``"p<tail>"`` when a tail percentile qualifies."""
    summary: Dict[str, Union[float, int]] = {
        "n": len(values),
        "p50": percentile(values, 50.0),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        summary[f"p{tail:g}"] = percentile(values, tail)
    return summary
