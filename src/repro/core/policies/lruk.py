"""LRU-K keep-alive.

O'Neil, O'Neil & Weikum's LRU-K [SIGMOD 1993], cited in the paper's
Section 2.2 as one of the classic locality-based variants. The
eviction key of a function is its *backward K-distance*: the time of
its K-th most recent invocation. Functions never invoked K times have
an infinite backward distance and are evicted first (in LRU order of
what history they do have), which filters one-off scans out of the
cache — the original motivation for the algorithm.

Reference history is kept per *function* (all of a function's
containers serve the same reference stream); ties among a function's
containers break to the least recently used one, as everywhere else.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, register_policy
from repro.core.pool import ContainerPool
from repro.domains import check_args, int_at_least
from repro.traces.model import TraceFunction

__all__ = ["LRUKPolicy"]


@register_policy("LRUK")
class LRUKPolicy(KeepAlivePolicy):
    """Evict by oldest K-th most recent reference."""

    # The backward K-distance key only moves forward: within the
    # fewer-than-K class the newest reference grows, finite K-distances
    # grow as the history window slides, and the -1e12 offset keeps the
    # class transition monotone too — the lazy victim index applies.
    monotone_priority = True

    domains = {"k": int_at_least(1)}  # the history deque's length

    def __init__(self, k: int = 2) -> None:
        super().__init__()
        check_args(self.domains, locals())
        self.k = k
        self._history: Dict[str, Deque[float]] = {}

    def on_invocation(
        self,
        function: TraceFunction,
        now_s: float,
        pool: Optional[ContainerPool] = None,
    ) -> None:
        super().on_invocation(function, now_s, pool)
        history = self._history.get(function.name)
        if history is None:
            history = deque(maxlen=self.k)
            self._history[function.name] = history
        history.append(now_s)

    def priority(self, container: Container, now_s: float) -> float:
        history = self._history.get(container.function.name)
        if history is None or len(history) < self.k:
            # Fewer than K references: infinite backward K-distance.
            # Order these before everything else, by most-recent use so
            # the least recently touched one-timers go first.
            newest = history[-1] if history else container.last_used_s
            # Large negative offset keeps the < K class strictly below
            # any finite K-distance priority.
            return newest - 1e12
        return history[0]  # time of the K-th most recent reference

    def reset(self) -> None:
        super().reset()
        self._history.clear()

    def __repr__(self) -> str:
        return f"LRUKPolicy(k={self.k})"
