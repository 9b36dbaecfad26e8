"""Exact order statistics for the ledger's samples."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(ordered: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile (``0 < q <= 100``) of
    already-sorted samples: the smallest sample with at least ``q`` %
    of the samples at or below it. ``None`` when fewer than ten samples
    lie beyond it (a p99 of 500 samples is an anecdote, not a tail)."""
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)  # 1-based
    if rank < 1 or n - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of per-round values."""
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
