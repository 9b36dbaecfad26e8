"""Workload characterization (the paper's Section 3 analysis).

The paper motivates its policies with workload facts: function
inter-arrival times and memory sizes vary by more than three orders of
magnitude, workloads are heavy-tailed with a few heavy hitters, and
arrival rates show diurnal swings with a peak about twice the mean.
This module computes those statistics for any trace, both to
characterize user workloads and to validate that the synthetic Azure
generator reproduces the properties it promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.domains import Domain, positive
from repro.traces.model import Trace

__all__ = [
    "gini_coefficient",
    "top_share",
    "orders_of_magnitude",
    "diurnal_peak_to_mean",
    "WorkloadProfile",
    "profile_trace",
]


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample: 0 = equal, 1 = one
    value holds everything."""
    if not values:
        raise ValueError("cannot compute Gini of an empty sample")
    if any(v < 0 for v in values):
        raise ValueError("Gini requires non-negative values")
    ordered = sorted(values)
    total = sum(ordered)
    if total == 0:
        return 0.0
    n = len(ordered)
    cumulative = 0.0
    for i, v in enumerate(ordered, start=1):
        cumulative += i * v
    return (2.0 * cumulative) / (n * total) - (n + 1.0) / n


def top_share(values: Sequence[float], fraction: float = 0.1) -> float:
    """Share of the total held by the top ``fraction`` of values."""
    Domain(0.0, 1.0, low_open=True).check("fraction", fraction)
    if not values:
        raise ValueError("cannot compute top share of an empty sample")
    ordered = sorted(values, reverse=True)
    k = max(1, int(round(len(ordered) * fraction)))
    total = sum(ordered)
    if total == 0:
        return 0.0
    return sum(ordered[:k]) / total


def orders_of_magnitude(values: Sequence[float]) -> float:
    """log10(max / min) over the positive values of a sample."""
    positive = [v for v in values if v > 0]
    if not positive:
        raise ValueError("need at least one positive value")
    return math.log10(max(positive) / min(positive))


def diurnal_peak_to_mean(
    trace: Trace, window_s: float = 3600.0
) -> float:
    """Peak-to-mean ratio of the windowed arrival rate."""
    positive.check("window_s", window_s)
    if len(trace) == 0:
        return 0.0
    times = trace.times_s
    start = times[0]
    end = trace.last_arrival_s
    num_windows = max(1, int((end - start) / window_s) + 1)
    counts = [0] * num_windows
    for time_s in times:
        index = min(int((time_s - start) / window_s), num_windows - 1)
        counts[index] += 1
    mean = sum(counts) / num_windows
    return max(counts) / mean if mean > 0 else 0.0


@dataclass(frozen=True)
class WorkloadProfile:
    """The Section 3 headline statistics of one workload."""

    num_functions: int
    num_invocations: int
    duration_s: float
    mean_rate_per_s: float
    popularity_gini: float
    popularity_top10_share: float
    iat_orders_of_magnitude: float
    memory_orders_of_magnitude: float
    diurnal_peak_to_mean: float
    median_memory_mb: float
    median_warm_time_s: float
    median_init_time_s: float

    def rows(self) -> List[Tuple[str, float]]:
        """(label, value) pairs for table rendering."""
        return [
            ("functions", self.num_functions),
            ("invocations", self.num_invocations),
            ("duration (h)", self.duration_s / 3600.0),
            ("mean rate (/s)", self.mean_rate_per_s),
            ("popularity Gini", self.popularity_gini),
            ("top-10% share", self.popularity_top10_share),
            ("IAT spread (orders)", self.iat_orders_of_magnitude),
            ("memory spread (orders)", self.memory_orders_of_magnitude),
            ("diurnal peak/mean", self.diurnal_peak_to_mean),
            ("median memory (MB)", self.median_memory_mb),
            ("median warm time (s)", self.median_warm_time_s),
            ("median init time (s)", self.median_init_time_s),
        ]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n % 2:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def profile_trace(trace: Trace, diurnal_window_s: float = 3600.0) -> WorkloadProfile:
    """Compute the full Section 3 characterization of a trace."""
    counts = trace.per_function_counts()
    popularity = [c for c in counts.values() if c > 0]
    duration = trace.duration_s

    # Mean per-function IATs, for the functions with reuse.
    iats: List[float] = []
    for name, count in counts.items():
        if count >= 2:
            # Mean IAT over the trace span; individual gaps vary more,
            # so this understates the spread — a conservative figure.
            iats.append(duration / (count - 1) if duration > 0 else 0.0)

    functions = list(trace.functions.values())
    return WorkloadProfile(
        num_functions=trace.num_functions,
        num_invocations=len(trace),
        duration_s=duration,
        mean_rate_per_s=trace.arrival_rate(),
        popularity_gini=gini_coefficient(popularity) if popularity else 0.0,
        popularity_top10_share=top_share(popularity) if popularity else 0.0,
        iat_orders_of_magnitude=(
            orders_of_magnitude(iats) if len(iats) >= 2 else 0.0
        ),
        memory_orders_of_magnitude=orders_of_magnitude(
            [f.memory_mb for f in functions]
        ),
        diurnal_peak_to_mean=diurnal_peak_to_mean(trace, diurnal_window_s),
        median_memory_mb=_median([f.memory_mb for f in functions]),
        median_warm_time_s=_median([f.warm_time_s for f in functions]),
        median_init_time_s=_median([f.init_time_s for f in functions]),
    )
