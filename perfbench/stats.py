"""Summary statistics shared by the worker and the steadiness check."""

from __future__ import annotations

import statistics

# The highest percentile reported is the one with at least ten samples
# beyond it, so p90 needs 100 samples.
P90_MIN_SAMPLES = 100


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float | None:
    """The 90th percentile, or None below P90_MIN_SAMPLES samples."""
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as `statistics.quantiles` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
