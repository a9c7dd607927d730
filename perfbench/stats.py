"""Percentiles and the rule that says which ones a sample supports."""

from __future__ import annotations

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def supports(n: int, q: float) -> bool:
    """Does a sample of ``n`` hold at least ten values above ``q``?"""
    return samples_beyond(n, q) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` that ``n`` samples support."""
    for q in TAIL_PERCENTILES:
        if supports(n, q):
            return q
    return None
