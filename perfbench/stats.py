"""Summary statistics shared by the workloads: medians and the sample-backed tail."""

from __future__ import annotations

import math
import statistics


def tail(values) -> tuple[float, float, int]:
    """The highest percentile that has at least ten samples beyond it.

    Returns ``(value, percentile, beyond)``: with ``n`` samples the value is
    the eleventh largest, the ``100 * (n - 10) / n`` percentile, with ten
    samples above it.  Fewer than eleven samples support no such percentile,
    so the maximum is returned with ``beyond = 0``.  A failed operation is
    passed as ``math.inf`` and so misses every latency limit.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail() of an empty sample")
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
