"""Latency summaries: the median and the tail percentile rule.

A tail percentile is only meaningful when enough samples lie beyond it.
The rule used throughout the benchmark: report the highest percentile of
a fixed ladder that still has at least ``MIN_BEYOND`` samples ranked
above it, capped at the workload's own percentile so that a faster
program (more units in the same run) does not silently switch the
metric to a higher percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles in permille, highest first.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)

#: Samples that must rank above a reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, permille: int) -> int:
    """Samples ranked above the nearest-rank ``permille`` percentile of ``n``."""
    return n - math.ceil(n * permille / 1000)


def tail_permille(n: int, cap_permille: int) -> int | None:
    """Highest ladder percentile ``<= cap_permille`` with enough samples beyond.

    Returns ``None`` when even the median has fewer than ``MIN_BEYOND``
    samples above it.
    """
    for permille in TAIL_LADDER_PERMILLE:
        if permille <= cap_permille and samples_beyond(n, permille) >= MIN_BEYOND:
            return permille
    return None


def nearest_rank(sorted_values: Sequence[float], permille: int) -> float:
    """The nearest-rank percentile of already sorted values."""
    rank = math.ceil(len(sorted_values) * permille / 1000)
    return float(sorted_values[max(rank, 1) - 1])


def latency_summary(latencies_s: Sequence[float], cap_permille: int) -> dict:
    """Median and tail latency in milliseconds, with the percentile used.

    With too few samples for any ladder percentile the tail falls back to
    the maximum and ``tail_permille`` is ``None``.
    """
    values = sorted(latencies_s)
    if not values:
        raise ValueError("no latency samples")
    permille = tail_permille(len(values), cap_permille)
    tail = values[-1] if permille is None else nearest_rank(values, permille)
    return {
        "p50_ms": statistics.median(values) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_permille": permille,
        "n_samples": len(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
