"""Arithmetic behind the end-to-end numbers: the tail percentile rule and
the error rate.

Tail percentiles use the nearest-rank definition on the sorted sample, so
a reported tail latency is one that was actually measured.
"""

import math

#: name -> (unit, better) of every end-to-end metric, in report order
E2E = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "time_to_stationary_ms": ("ms", "lower"),
    "cpu_per_item_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "fit_mean": ("ratio", "higher"),
}

#: candidate tail percentiles, lowest first; the report picks the highest one
#: that still has at least TAIL_MIN_BEYOND samples above it
LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(p, n):
    """1-based rank of the p-th percentile of n sorted samples."""
    if n < 1:
        raise ValueError("no samples")
    # round first: 99.9 * 1000 / 100 is 999.0000000000001 in binary
    return min(n, max(1, math.ceil(round(p * n / 100.0, 9))))


def percentile(sorted_values, p):
    return sorted_values[nearest_rank(p, len(sorted_values)) - 1]


def tail(values):
    """(percentile, value, samples beyond it) for the highest LADDER rung
    with at least TAIL_MIN_BEYOND samples ranked above it. With too few
    samples for any rung, the median is returned with its actual count."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = LADDER[0]
    for p in LADDER:
        if n - nearest_rank(p, n) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, percentile(ordered, chosen), n - nearest_rank(chosen, n)


def error_rate(failed, attempted):
    """Failed items over every item attempted, failures included."""
    if attempted < 1:
        raise ValueError("no items attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
