"""The one timeline: how arrivals interleave with everything else timed.

The keep-alive simulator handles arrivals in order and applies the
fault schedule, pending retries and a driver's ticks before the next
arrival; the OpenWhisk invoker model (Section 7.2) interleaves arrivals
with launch and invocation completions. Every driver takes the
interleaving from :meth:`EventQueue.merge`, under these rules:

* entries fire in (time, filing) order (a monotone sequence number, so
  runs are deterministic): what a driver files first — a server's
  schedule, at construction — comes first among equal times;
* an arrival comes after every entry due by its time, one filed on the
  way included;
* past the last arrival, the next instant fires only while a retry is
  pending: every failed attempt gets a terminal outcome, and what lies
  beyond the last retry stays queued;
* before a cluster's entry touches a member server at T, the member
  fires its own entries due before T (:meth:`EventQueue.pop_before`),
  so a server sees its entries in (time, filing) order, whoever filed
  them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["EventQueue"]

T = TypeVar("T")
A = TypeVar("A")  # what an arrival carries
_INF = float("inf")


class EventQueue(Generic[T]):
    """A time-ordered priority queue of (time, payload) entries."""

    def __init__(self, entries: Iterable[Tuple[float, T]] = ()) -> None:
        """``entries``: ``(time, payload)`` pairs in time order (a server's
        schedule, none a retry), filed as given: a sorted list is a heap."""
        self._heap: List[Tuple[float, int, bool, T]] = []
        self._filed = 0  # the next filing number
        if entries:
            self._heap = [(time_s, n, False, item) for n, (time_s, item) in enumerate(entries)]
            self._filed = len(self._heap)
        #: How many entries are retries (``push(..., retry=True)``).
        self.retries = 0
        #: Time of the earliest entry, ``inf`` when empty: a plain
        #: attribute, so "anything due?" is one float compare, no call.
        self.next_s = self._heap[0][0] if self._heap else _INF

    def push(self, time_s: float, payload: T, retry: bool = False) -> None:
        if time_s < 0:
            raise ValueError(f"event time must be >= 0, got {time_s}")
        heappush(self._heap, (time_s, self._filed, retry, payload))
        self._filed += 1
        self.retries += retry
        if time_s < self.next_s:
            self.next_s = time_s

    def pop(self) -> Tuple[float, T]:
        """Remove and return the earliest (time, payload) entry
        (``IndexError`` when empty)."""
        time_s, __, retry, payload = heappop(self._heap)
        self.retries -= retry
        self.next_s = self._heap[0][0] if self._heap else _INF
        return time_s, payload

    def fire(self: EventQueue[Callable[[float], None]]) -> None:
        """Pop the earliest of a queue of actions: ``action(its time)``."""
        time_s, action = self.pop()
        action(time_s)

    def pop_until(self, time_s: float) -> Iterator[Tuple[float, T]]:
        """Yield and remove every entry at or before ``time_s``, in order."""
        while self._heap and self._heap[0][0] <= time_s:
            yield self.pop()

    def pop_before(self, time_s: float) -> Iterator[Tuple[float, T]]:
        """Yield and remove every entry strictly before ``time_s``, in order."""
        while self._heap and self._heap[0][0] < time_s:
            yield self.pop()

    def merge(
        self, arrivals: Iterable[Tuple[float, A]]
    ) -> Iterator[Tuple[float, Optional[A]]]:
        """Each arrival after every entry due by it, then, while a retry
        is pending, the next instant's entries. A due entry comes as
        ``(its time, None)``, for the consumer to :meth:`pop` or
        :meth:`fire`."""
        heap = self._heap
        for arrival in arrivals:
            while heap and heap[0][0] <= arrival[0]:
                yield heap[0][0], None
            yield arrival
        while self.retries:  # one instant at a time
            instant = heap[0][0]
            while heap and heap[0][0] <= instant:
                yield instant, None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        self._heap.clear()
        self.retries = 0
        self.next_s = _INF
