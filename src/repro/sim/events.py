"""A minimal discrete-event queue.

The trace-driven keep-alive simulator advances from arrival to arrival
and merges everything else that is timed — the fault schedule, pending
retries, a driver's controller ticks — from one of these; the OpenWhisk
invoker model (Section 7.2) runs on one outright: request arrivals,
container-launch completions, invocation completions, and controller
ticks interleave. Events at equal times are delivered in insertion
order (a monotone sequence number breaks ties), which keeps
simulations deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["EventQueue"]

T = TypeVar("T")
_INF = float("inf")


class EventQueue(Generic[T]):
    """A time-ordered priority queue of (time, payload) events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, T]] = []
        self._counter = itertools.count()
        #: Time of the earliest event, ``inf`` when empty: a plain
        #: attribute, so "anything due?" is one float compare, no call.
        self.next_s = _INF

    def push(self, time_s: float, payload: T) -> None:
        if time_s < 0:
            raise ValueError(f"event time must be >= 0, got {time_s}")
        heapq.heappush(self._heap, (time_s, next(self._counter), payload))
        if time_s < self.next_s:
            self.next_s = time_s

    def pop(self) -> Tuple[float, T]:
        """Remove and return the earliest (time, payload) event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time_s, __, payload = heapq.heappop(self._heap)
        self.next_s = self._heap[0][0] if self._heap else _INF
        return time_s, payload

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_until(self, time_s: float) -> Iterator[Tuple[float, T]]:
        """Yield and remove every event at or before ``time_s``, in order."""
        while self._heap and self._heap[0][0] <= time_s:
            yield self.pop()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        self._heap.clear()
        self.next_s = _INF
