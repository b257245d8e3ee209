"""Order statistics shared by the driver and the comparison tool."""

from __future__ import annotations

import statistics

#: a percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics rule); the median is always reported
MIN_BEYOND = 10

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99, 95, 90, 75)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for a zero
    median, where a share is undefined)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def highest_percentile(n: int):
    """The highest tail percentile with ``MIN_BEYOND`` samples beyond it
    among ``n`` samples, or None when none qualifies."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for no samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * p // 100))
    return values[int(rank) - 1]


def gated_percentile(values, p: float) -> float:
    """``percentile(values, p)`` when ``MIN_BEYOND`` samples lie beyond
    it, else 0 (too few samples to report that tail)."""
    values = list(values)
    if len(values) * (100 - p) / 100 < MIN_BEYOND:
        return 0.0
    return percentile(values, p)


def describe(values) -> dict:
    """Median, quartiles, sample count and the reportable tail."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    out = {"median": median, "q1": q1, "q3": q3, "n": len(values),
           "samples": values}
    tail = highest_percentile(len(values))
    if tail is not None:
        out[f"p{tail}"] = percentile(values, tail)
    return out
