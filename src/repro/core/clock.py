"""Clock sources: the logical GD aging clock and the timestamp clocks.

Two unrelated notions of time live here:

* :class:`LogicalClock` — Greedy-Dual policies age cache entries with
  a per-server *logical* clock rather than wall time (Section 4.1).
  The clock only moves forward on evictions: when a container with the
  lowest priority is terminated, the clock is set to that priority
  (or, for a batch of evictions, to the maximum priority in the
  batch). Every subsequent use of a surviving container stamps it with
  this clock value, so recently used containers always outrank
  containers that were cheap enough to evict in the past.

* :class:`Clock` (with :class:`SimClock` and :class:`RealTimeClock`)
  — the *timestamp* source for every ``now_s`` the engine sees. The
  policies and :class:`~repro.core.pool.ContainerPool` are
  clock-agnostic by construction (they only ever receive ``now_s``
  parameters, never read time themselves — audited by lint rule
  FC001); the driver owns the clock. The simulator drives a
  :class:`SimClock` from trace arrival times (byte-identical to
  passing ``invocation.time_s`` directly, because traces are sorted);
  the live serving mode (``repro.live``, docs/live-serving.md) drives
  the *same* engine from a :class:`RealTimeClock`.

This module is the single FC001-exempt module: real-time reads happen
here and nowhere else in the deterministic layers.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

try:  # Protocol is typing-native from 3.8 on.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - no supported interpreter
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


__all__ = [
    "Clock",
    "LogicalClock",
    "RealTimeClock",
    "SimClock",
    "wall_clock_s",
]


def wall_clock_s() -> float:
    """Monotonic wall-clock seconds, for throughput observability only.

    The single sanctioned wall-clock accessor in the deterministic
    layers (lint rule FC001, see ``docs/static-analysis.md``):
    simulation *logic* must never branch on wall time, but the replay
    loop may measure its own duration through this function (e.g.
    ``SimulationMetrics.wall_time_s``).
    """
    return time.perf_counter()


class LogicalClock:
    """Monotone non-decreasing logical clock.

    >>> clock = LogicalClock()
    >>> clock.value
    0.0
    >>> clock.advance_to(3.5)
    >>> clock.value
    3.5
    >>> clock.advance_to(2.0)  # never moves backwards
    >>> clock.value
    3.5
    """

    def __init__(self, initial: float = 0.0) -> None:
        self._value = float(initial)

    @property
    def value(self) -> float:
        return self._value

    def advance_to(self, value: float) -> None:
        """Move the clock forward to ``value``; ignores smaller values."""
        if value > self._value:
            self._value = float(value)

    def reset(self, value: float = 0.0) -> None:
        """Reset the clock (only used when starting a fresh simulation)."""
        self._value = float(value)

    def __repr__(self) -> str:
        return f"LogicalClock(value={self._value})"


@runtime_checkable
class Clock(Protocol):
    """Timestamp source for the keep-alive engine.

    The one method every driver-facing clock provides: ``now()``
    returns the current time in seconds as a monotone non-decreasing
    float. The engine never calls anything else, so any object with a
    conforming ``now`` (including a test double) is a valid clock.
    """

    def now(self) -> float:
        """Current time in seconds; never decreases between calls."""
        ...  # pragma: no cover - protocol body


class SimClock:
    """Simulated time: advanced explicitly by the replay driver.

    ``advance_to`` stores the given instant verbatim (``float`` of a
    float is the identical float), so a replay that advances the clock
    to each arrival time and reads it back produces timestamps
    byte-identical to passing ``invocation.time_s`` straight through —
    the property the pinned benchmark fingerprints rely on. Like
    :class:`LogicalClock`, it never moves backwards.

    >>> clock = SimClock()
    >>> clock.advance_to(2.5)
    2.5
    >>> clock.advance_to(1.0)  # stale instants are ignored
    2.5
    >>> clock.now()
    2.5
    """

    __slots__ = ("_now_s",)

    def __init__(self, start_s: float = 0.0) -> None:
        self._now_s = float(start_s)

    def now(self) -> float:
        return self._now_s

    def advance_to(self, now_s: float) -> float:
        """Move simulated time forward to ``now_s`` and return :meth:`now`;
        smaller values are ignored, so out-of-order ticks cannot rewind it."""
        if now_s > self._now_s:
            self._now_s = float(now_s)
        return self._now_s

    def __repr__(self) -> str:
        return f"SimClock(now_s={self._now_s})"


class RealTimeClock:
    """Wall time, rebased so the serving epoch starts at ``start_s``.

    ``now()`` returns ``time_source() - epoch + start_s`` where the
    epoch is sampled from the source at construction (pass ``epoch_s``
    to pin it — tests use ``epoch_s=0.0`` with a mocked source stepping
    exact trace instants, which makes ``now()`` return the source's
    values unchanged). The default source is the same monotonic counter
    :func:`wall_clock_s` reads, so live timestamps share its
    resolution and can never jump backwards on NTP adjustments.
    """

    __slots__ = ("_source", "_epoch")

    def __init__(
        self,
        time_source: Optional[Callable[[], float]] = None,
        start_s: float = 0.0,
        epoch_s: Optional[float] = None,
    ) -> None:
        self._source = time_source if time_source is not None else time.perf_counter
        if epoch_s is None:
            epoch_s = self._source() - float(start_s)
        self._epoch = float(epoch_s)

    def now(self) -> float:
        return self._source() - self._epoch

    def __repr__(self) -> str:
        return f"RealTimeClock(epoch_s={self._epoch})"
