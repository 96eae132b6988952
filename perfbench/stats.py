"""Small statistics used by the benchmark and its spread report."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartiles as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / median(values)


def rounds_for(seconds: float, round_seconds: float) -> int:
    """Rounds in a run of about `seconds` when one round takes about
    `round_seconds`: never fewer than 3, and odd, so that an item's median
    round is one measured round."""
    n = max(3, int(round(seconds / round_seconds)))
    return n if n % 2 else n + 1


def sum_of_medians(samples) -> float:
    """Sum over items of each item's median round; `samples` holds one
    sequence of per-round values per item. A stall that hits fewer than half
    of an item's rounds does not move its median."""
    return sum(median(s) for s in samples)
