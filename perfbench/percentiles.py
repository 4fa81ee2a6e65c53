"""Latency summaries: a median plus the highest trustworthy tail.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples
lie beyond it; with fewer, the value would be one or two unlucky
samples. ``summarize`` picks the highest candidate percentile that meets
the rule and reports how many samples it rests on.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10
#: tail percentiles considered, highest first
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0)


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples
    (the tolerance keeps 99.9% of 10,000 at rank 9,990, not 9,991)."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(count: int, q: float) -> int:
    """Samples lying beyond the nearest-rank percentile ``q`` of ``count``."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples past
    it, or None when ``count`` samples support no tail at all."""
    for q in TAIL_CANDIDATES:
        if beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail percentile and the sample counts behind them.

    Without enough samples for any tail percentile the slowest sample is
    the tail (``tail_q`` = 100, ``beyond`` = 0), so callers always get a
    value and the count says how little it rests on.
    """
    count = len(values)
    q = tail_percentile(count)
    if q is None:
        q = 100.0
    return {"p50": percentile(values, 50.0), "tail": percentile(values, q),
            "tail_q": q, "n": count, "beyond": beyond(count, q)}


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
