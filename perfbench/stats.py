"""Order statistics used by the benchmark report and by compare mode."""
from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) with the same cut points as statistics.quantiles(n=4)."""
    xs = list(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def median(values) -> float:
    return percentile(values, 50.0)
