"""Container state machine.

Each function invocation runs in its own container (Section 3's system
model). At any instant a container is either *running* a function or
sitting *warm* waiting for the next invocation of the same function.
Containers of different functions are never interchangeable.

The container also carries the per-container bookkeeping that the
keep-alive policies maintain: the Greedy-Dual clock stamp and priority,
and the Landlord credit.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Optional

from repro.traces.model import TraceFunction

__all__ = ["ContainerState", "Container", "restart_container_ids"]

_container_ids = itertools.count()


def restart_container_ids() -> None:
    """Number the next container 0. Ids are process-wide, so a run that
    restarts them names its containers by creation order whatever ran
    before it; no other run may be creating containers meanwhile."""
    global _container_ids
    _container_ids = itertools.count()


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""

    WARM = "warm"        # initialized and idle, ready for a warm start
    RUNNING = "running"  # currently executing an invocation
    DEAD = "dead"        # terminated (evicted or expired)


# The members, bound once: a module global costs a fraction of an Enum
# attribute read, and the per-arrival transitions below (and the pool's
# scans) make several. Members are singletons: a state compares with ``is``.
_WARM = ContainerState.WARM
_RUNNING = ContainerState.RUNNING
_DEAD = ContainerState.DEAD


class Container:
    """One virtual execution environment for one function.

    Policies read and write ``clock_stamp``, ``priority``, and
    ``credit``; the pool and simulator manage the state transitions.
    """

    __slots__ = (
        "container_id",
        "function",
        "state",
        "created_at_s",
        "last_used_s",
        "busy_until_s",
        "clock_stamp",
        "priority",
        "credit",
        "invocation_count",
        "prewarmed",
        "pinned",
        "doomed",
        "pool",
    )

    def __init__(self, function: TraceFunction, created_at_s: float) -> None:
        self.container_id: int = next(_container_ids)
        self.function = function
        self.state = _WARM
        self.created_at_s = created_at_s
        self.last_used_s = created_at_s
        self.busy_until_s: float = created_at_s
        # Policy bookkeeping.
        self.clock_stamp: float = 0.0
        self.priority: float = 0.0
        self.credit: float = 0.0
        self.invocation_count: int = 0
        # True if the container was created speculatively by a
        # prefetching policy (HIST) rather than by a cold start.
        self.prewarmed: bool = False
        # True for provisioned-concurrency containers (AWS-style
        # reserved capacity): never evictable, never expiring.
        self.pinned: bool = False
        # True once fault injection has condemned the container (its
        # invocation crashed): it is terminated when the invocation
        # finishes instead of returning to the warm pool.
        self.doomed: bool = False
        # Back-reference to the owning ContainerPool (set by the pool
        # on add/evict): the busy/idle transitions below keep its O(1)
        # evictable-memory accounting and its victim index current.
        self.pool = None

    @property
    def memory_mb(self) -> float:
        return self.function.memory_mb

    @property
    def is_idle(self) -> bool:
        return self.state is _WARM

    @property
    def is_running(self) -> bool:
        return self.state is _RUNNING

    def start_invocation(self, now_s: float, duration_s: float) -> None:
        """Transition to RUNNING for ``duration_s`` seconds."""
        if self.state is not _WARM:
            raise RuntimeError(
                f"container {self.container_id} ({self.function.name}) "
                f"cannot start an invocation in state {self.state.value}"
            )
        self.state = _RUNNING
        self.last_used_s = now_s
        self.busy_until_s = now_s + duration_s
        self.invocation_count += 1
        pool = self.pool
        if pool is not None and not self.pinned:  # the pool's accounting, kept here
            pool._evictable_mb -= self.function.memory_mb
            pool._idle_unpinned -= 1
            if pool._idle_unpinned == 0 and abs(pool._evictable_mb) <= pool._slack_mb:
                pool._evictable_mb = 0.0  # float drift of an empty idle set, as in evict

    def finish_invocation(self, now_s: float) -> None:
        """Transition back to WARM once the invocation completes."""
        if self.state is not _RUNNING:
            raise RuntimeError(
                f"container {self.container_id} ({self.function.name}) "
                f"is not running"
            )
        self.state = _WARM
        if now_s > self.last_used_s:
            self.last_used_s = now_s
        pool = self.pool
        if pool is not None and not self.pinned:
            pool._evictable_mb += self.function.memory_mb
            pool._idle_unpinned += 1
            cid = self.container_id
            entry = pool._parked.pop(cid, None)
            if entry is not None:  # back into the index, under its real key once a walk gave one
                key_of = pool._key_of
                heapq.heappush(pool._victim_heap, entry if key_of is None else (key_of(self), cid))

    def terminate(self) -> None:
        """Transition to DEAD; a dead container can never be reused."""
        if self.state is _RUNNING:
            raise RuntimeError(
                f"container {self.container_id} ({self.function.name}) "
                f"cannot be terminated while running"
            )
        self.state = _DEAD

    def idle_time_s(self, now_s: float) -> float:
        """Seconds since the container last finished / was last used."""
        return max(0.0, now_s - self.last_used_s)

    def __repr__(self) -> str:
        return (
            f"Container(id={self.container_id}, fn={self.function.name!r}, "
            f"state={self.state.value}, priority={self.priority:.4g})"
        )
