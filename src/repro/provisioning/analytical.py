"""Analytical cache models: Che's approximation and TTL caches.

Section 2.2 lists the analytical toolbox caching brings to FaaS —
"Che's approximation [24]", eviction times, and TTL equivalence
results [18, 36] — and Section 7.1 leans on one of them: "The
equivalence of LRU and TTL-based caching for rare objects has been
noted, which explains their similar behavior" (Figure 5c).

This module implements those models for function keep-alive, with
containers of different sizes and (approximately Poisson) arrivals:

* **Che's approximation** for an LRU keep-alive cache of size ``C``:
  there is a *characteristic time* ``T_C`` — the solution of
  ``sum_i s_i (1 - exp(-lambda_i T)) = C`` — such that each function
  behaves as if it were cached with a TTL of ``T_C``; its hit ratio is
  ``1 - exp(-lambda_i T_C)``.
* **TTL cache**: a keep-alive TTL of ``T`` gives function ``i`` a hit
  ratio of ``1 - exp(-lambda_i T)`` and an expected memory footprint
  of ``sum_i s_i (1 - exp(-lambda_i T))`` (the container is resident
  exactly when an arrival occurred within the last ``T``).
* **Equivalence**: an LRU cache of size ``C`` is approximately a TTL
  cache with ``T = T_C``; :func:`equivalent_ttl` exposes the mapping
  in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.traces.model import Trace

__all__ = [
    "FunctionArrivalModel",
    "models_from_trace",
    "characteristic_time",
    "lru_hit_ratio",
    "ttl_hit_ratio",
    "ttl_expected_memory_mb",
    "equivalent_ttl",
    "equivalent_cache_size_mb",
]


@dataclass(frozen=True)
class FunctionArrivalModel:
    """A function as the analytical models see it: a Poisson arrival
    rate and a container size."""

    name: str
    rate_per_s: float
    size_mb: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError(
                f"{self.name}: arrival rate must be positive, got {self.rate_per_s}"
            )
        if self.size_mb <= 0:
            raise ValueError(
                f"{self.name}: size must be positive, got {self.size_mb}"
            )


def models_from_trace(trace: Trace) -> List[FunctionArrivalModel]:
    """Empirical arrival models from a trace (mean rate per function).

    Functions with fewer than two invocations carry no rate
    information and are skipped.
    """
    duration = trace.duration_s
    if duration <= 0:
        raise ValueError("trace must span positive time")
    counts = trace.per_function_counts()
    models = []
    for name, count in counts.items():
        if count < 2:
            continue
        models.append(
            FunctionArrivalModel(
                name=name,
                rate_per_s=count / duration,
                size_mb=trace.function(name).memory_mb,
            )
        )
    if not models:
        raise ValueError("no function with >= 2 invocations in the trace")
    return models


def ttl_expected_memory_mb(
    models: Sequence[FunctionArrivalModel], ttl_s: float
) -> float:
    """Expected resident memory of a TTL-``ttl_s`` keep-alive cache."""
    if ttl_s < 0:
        raise ValueError(f"ttl must be >= 0, got {ttl_s}")
    return sum(
        m.size_mb * (1.0 - math.exp(-m.rate_per_s * ttl_s)) for m in models
    )


def characteristic_time(
    models: Sequence[FunctionArrivalModel],
    cache_mb: float,
    tolerance: float = 1e-9,
) -> float:
    """Che's characteristic time ``T_C`` for an LRU cache of ``cache_mb``.

    The expected TTL-occupancy is strictly increasing in ``T`` and
    saturates at the total working-set size, so the fixed point is
    found by bisection. A cache at least as large as the working set
    returns ``inf`` (nothing is ever evicted).

    >>> m = [FunctionArrivalModel("f", rate_per_s=1.0, size_mb=100.0)]
    >>> round(characteristic_time(m, 50.0), 4)  # 100(1-e^-T) = 50
    0.6931
    """
    if cache_mb <= 0:
        raise ValueError(f"cache size must be positive, got {cache_mb}")
    working_set = sum(m.size_mb for m in models)
    if cache_mb >= working_set:
        return math.inf
    lo, hi = 0.0, 1.0
    while ttl_expected_memory_mb(models, hi) < cache_mb:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - numerically unreachable
            return math.inf
    while hi - lo > tolerance * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if ttl_expected_memory_mb(models, mid) < cache_mb:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ttl_hit_ratio(
    models: Sequence[FunctionArrivalModel], ttl_s: float
) -> float:
    """Request-weighted hit ratio of a TTL keep-alive cache."""
    total_rate = sum(m.rate_per_s for m in models)
    hits = sum(
        m.rate_per_s * (1.0 - math.exp(-m.rate_per_s * ttl_s))
        for m in models
    )
    return hits / total_rate


def lru_hit_ratio(
    models: Sequence[FunctionArrivalModel], cache_mb: float
) -> float:
    """Che-approximate hit ratio of an LRU cache of ``cache_mb``.

    Each function sees an effective TTL equal to the characteristic
    time, so this is :func:`ttl_hit_ratio` at ``T_C``.
    """
    t_c = characteristic_time(models, cache_mb)
    if math.isinf(t_c):
        return 1.0
    return ttl_hit_ratio(models, t_c)


def per_function_hit_ratios(
    models: Sequence[FunctionArrivalModel], cache_mb: float
) -> Dict[str, float]:
    """Per-function Che-approximate hit ratios at one cache size."""
    t_c = characteristic_time(models, cache_mb)
    if math.isinf(t_c):
        return {m.name: 1.0 for m in models}
    return {
        m.name: 1.0 - math.exp(-m.rate_per_s * t_c) for m in models
    }


def equivalent_ttl(
    models: Sequence[FunctionArrivalModel], cache_mb: float
) -> float:
    """The TTL that makes a TTL cache behave like LRU at ``cache_mb``.

    This *is* the characteristic time — the formal content of the
    rare-object TTL/LRU equivalence the paper invokes for Figure 5c.
    """
    return characteristic_time(models, cache_mb)


def equivalent_cache_size_mb(
    models: Sequence[FunctionArrivalModel], ttl_s: float
) -> float:
    """The LRU size matching a TTL cache: its expected occupancy."""
    return ttl_expected_memory_mb(models, ttl_s)
