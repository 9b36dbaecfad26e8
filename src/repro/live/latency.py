"""Log-bucketed latency histogram for live decision timing.

The live frontend needs p50/p99/p999 over millions of sub-millisecond
samples without keeping them all: a fixed array of logarithmic buckets
(HdrHistogram's trick, sized for the microsecond-to-seconds range a
keep-alive decision can span) gives percentiles with bounded relative
error and O(1) recording on the hot path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Fixed-size histogram with logarithmically spaced buckets.

    ``record`` is O(1); percentiles interpolate to the geometric
    midpoint of the selected bucket, so the relative error is bounded
    by the bucket width (default 20 buckets per decade ≈ 12%).

    >>> h = LatencyHistogram()
    >>> for us in (10, 20, 30, 40, 1000):
    ...     h.record(us * 1e-6)
    >>> h.count
    5
    >>> 20e-6 < h.percentile(0.5) < 40e-6
    True
    """

    __slots__ = (
        "_buckets",
        "_buckets_per_decade",
        "_log_min",
        "_max",
        "_min",
        "_sum",
        "count",
    )

    def __init__(
        self,
        min_s: float = 1e-7,
        max_s: float = 100.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if min_s <= 0.0 or max_s <= min_s:
            raise ValueError(f"need 0 < min_s < max_s, got {min_s}/{max_s}")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self._log_min = math.log10(min_s)
        self._buckets_per_decade = buckets_per_decade
        decades = math.log10(max_s) - self._log_min
        n = int(math.ceil(decades * buckets_per_decade)) + 1
        self._buckets: List[int] = [0] * n
        self.count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def record(self, value_s: float) -> None:
        """Add one sample (seconds)."""
        buckets = self._buckets
        index = 0 if value_s <= 0.0 else int(
            (math.log10(value_s) - self._log_min) * self._buckets_per_decade
        )
        if index < 0:
            index = 0
        elif index >= len(buckets):
            index = len(buckets) - 1
        buckets[index] += 1
        self.count += 1
        self._sum += value_s
        if self._min is None or value_s < self._min:
            self._min = value_s
        if self._max is None or value_s > self._max:
            self._max = value_s

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same bucketing) into this one."""
        if len(other._buckets) != len(self._buckets):
            raise ValueError("histograms have different bucket layouts")
        for i, n in enumerate(other._buckets):
            self._buckets[i] += n
        self.count += other.count
        self._sum += other._sum
        for bound in (other._min, other._max):
            if bound is None:
                continue
            if self._min is None or bound < self._min:
                self._min = bound
            if self._max is None or bound > self._max:
                self._max = bound

    def percentile(self, q: float) -> float:
        """The latency (seconds) at quantile ``q`` in [0, 1]; 0.0 when
        empty. Exact at the recorded min/max, geometric-midpoint
        interpolated inside a bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0 or self._min is None or self._max is None:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self._buckets):
            seen += n
            if seen >= rank and n > 0:
                low = 10.0 ** (
                    self._log_min + i / self._buckets_per_decade
                )
                high = 10.0 ** (
                    self._log_min + (i + 1) / self._buckets_per_decade
                )
                mid = math.sqrt(low * high)
                return min(max(mid, self._min), self._max)
        return self._max

    @property
    def mean_s(self) -> float:
        return self._sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """JSON-ready snapshot in microseconds (the natural unit for
        admission decisions)."""
        to_us = 1e6
        return {
            "count": float(self.count),
            "mean_us": self.mean_s * to_us,
            "p50_us": self.percentile(0.50) * to_us,
            "p99_us": self.percentile(0.99) * to_us,
            "p999_us": self.percentile(0.999) * to_us,
            "min_us": (self._min or 0.0) * to_us,
            "max_us": (self._max or 0.0) * to_us,
        }

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p99_us={self.percentile(0.99) * 1e6:.1f})"
        )
