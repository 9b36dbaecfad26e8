"""Concurrency analysis: the caching analogy's correction term.

Section 5.1's "Limitations of the Caching Analogy" identifies exactly
where keep-alive departs from classical caching: a function can have
several containers for concurrent invocations, so at larger cache
sizes the real memory need exceeds what reuse distances predict, and
at small sizes concurrent demand causes drops the model cannot see.

This module computes the correction from the trace itself:

* :func:`concurrency_profile` — per function, the peak number of
  overlapping invocations (sweep line over warm-execution intervals);
* :func:`concurrency_headroom_mb` — the extra memory beyond one
  container per function that peak concurrency requires:
  ``sum_i (peak_i - 1) * size_i``. Adding it to a reuse-distance
  provisioning decision covers the multi-container effect the
  hit-ratio curve misses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.traces.model import Trace

__all__ = [
    "concurrency_profile",
    "concurrency_headroom_mb",
    "working_set_mb",
]


def concurrency_profile(trace: Trace, use_cold_time: bool = False) -> Dict[str, int]:
    """Peak overlapping invocations per function.

    Each invocation occupies a container for its warm running time
    (or cold time with ``use_cold_time``, the conservative bound — a
    cold start holds the container longer). The peak of the resulting
    interval overlap is the minimum number of containers the function
    needs to avoid concurrency-induced cold starts.
    """
    events: Dict[str, List[Tuple[float, int]]] = {}
    for time_s, function in trace.arrivals():
        duration = (
            function.cold_time_s if use_cold_time else function.warm_time_s
        )
        per_fn = events.setdefault(function.name, [])
        per_fn.append((time_s, +1))
        per_fn.append((time_s + duration, -1))
    peaks: Dict[str, int] = {name: 0 for name in trace.functions}
    for name, fn_events in events.items():
        # Ends sort before starts at equal times: back-to-back reuse
        # of one container is not concurrency.
        fn_events.sort(key=lambda e: (e[0], e[1]))
        current = 0
        peak = 0
        for __, delta in fn_events:
            current += delta
            peak = max(peak, current)
        peaks[name] = peak
    return peaks


def concurrency_headroom_mb(trace: Trace, use_cold_time: bool = False) -> float:
    """Memory beyond one-container-per-function that concurrency needs.

    This is the correction to add to a reuse-distance-based size: the
    hit-ratio curve models one cached copy per function, while peak
    load holds ``peak_i`` containers of function ``i`` simultaneously.
    """
    profile = concurrency_profile(trace, use_cold_time=use_cold_time)
    return sum(
        (peak - 1) * trace.function(name).memory_mb
        for name, peak in profile.items()
        if peak > 1
    )


def working_set_mb(trace: Trace) -> float:
    """Total memory of one container per (invoked) function."""
    invoked = {inv.function_name for inv in trace}
    return sum(trace.function(name).memory_mb for name in invoked)
