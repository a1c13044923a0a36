"""Order statistics shared by the harness and ``compare.py``."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest percentile with at least ``beyond`` of ``n`` samples
    above it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        # n * (100 - p) / 100 >= beyond, kept exact for p = 90, 99, ...
        if n * (100.0 - p) >= beyond * 100.0 - 1e-9:
            best = p
    return best


def quartiles(values) -> tuple[float, float, float]:
    """Q1, median and Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf
