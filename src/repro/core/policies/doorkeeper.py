"""Doorkeeper admission control for keep-alive.

Section 3.1 observes that "a function which is not popular and is
unlikely to be called again in the near future sees little benefit
from keep-alive, and wastes server memory". Admission policies from
the caching literature (TinyLFU's doorkeeper [Einziger et al., cited
in Section 2.2]) handle this on the cache side: an object must prove
itself before occupying space.

:class:`DoorkeeperPolicy` wraps any keep-alive policy and adds that
admission gate: a function's containers are only *retained* after the
function has been invoked at least ``admission_threshold`` times while
resident; before that, its container is released as soon as the
invocation completes. Eviction order, clocks, and prewarms are
delegated to the wrapped policy untouched.

The tradeoff is exactly the classical one: one-shot functions stop
polluting the cache (more room for the proven working set), at the
price of an extra compulsory cold start for every function that does
come back.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.container import Container
from repro.core.policies.base import (
    KeepAlivePolicy,
    PrewarmRequest,
    create_policy,
    register_policy,
)
from repro.core.pool import ContainerPool
from repro.domains import check_args, int_at_least
from repro.traces.model import TraceFunction

__all__ = ["DoorkeeperPolicy"]


@register_policy("DOORKEEPER")
class DoorkeeperPolicy(KeepAlivePolicy):
    """Admission-gated wrapper around another keep-alive policy."""

    domains = {"admission_threshold": int_at_least(1), "aging_interval": int_at_least(1)}

    def __init__(
        self,
        inner: str | KeepAlivePolicy = "GD",
        admission_threshold: int = 2,
        aging_interval: int = 100_000,
    ) -> None:
        """``aging_interval``: every this-many invocations, all
        admission counts are halved (TinyLFU's aging), so ancient
        popularity cannot grant admission forever."""
        super().__init__()
        check_args(self.domains, locals())
        if isinstance(inner, str):
            inner = create_policy(inner)
        self.inner = inner
        self.admission_threshold = admission_threshold
        self.aging_interval = aging_interval
        self.rejections = 0
        # Unlike the per-function frequency (which resets when the last
        # container dies, per Section 4.1), admission history must
        # survive eviction — that is the entire point of a doorkeeper.
        self._admission_counts: dict = {}
        self._since_aging = 0

    # ------------------------------------------------------------------
    # Delegation (frequency is tracked by both; the wrapper's own
    # counters feed the admission decision).
    # ------------------------------------------------------------------

    def on_invocation(
        self,
        function: TraceFunction,
        now_s: float,
        pool: Optional[ContainerPool] = None,
    ) -> None:
        super().on_invocation(function, now_s, pool)
        self.inner.on_invocation(function, now_s, pool)
        self._admission_counts[function.name] = (
            self._admission_counts.get(function.name, 0) + 1
        )
        self._since_aging += 1
        if self._since_aging >= self.aging_interval:
            self._since_aging = 0
            self._admission_counts = {
                name: count // 2
                for name, count in self._admission_counts.items()
                if count // 2 > 0
            }

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self.inner.on_warm_start(container, now_s, pool)

    def on_cold_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self.inner.on_cold_start(container, now_s, pool)

    def on_prewarm(
        self, container: Container, request: PrewarmRequest, pool: ContainerPool
    ) -> None:
        self.inner.on_prewarm(container, request, pool)

    def on_evict(
        self,
        container: Container,
        now_s: float,
        pool: ContainerPool,
        pressure: bool,
    ) -> None:
        self.inner.on_evict(container, now_s, pool, pressure)
        super().on_evict(container, now_s, pool, pressure)

    def priority(self, container: Container, now_s: float) -> float:
        return self.inner.priority(container, now_s)

    def victim_order(
        self, pool: ContainerPool, now_s: float
    ) -> Iterator[Container]:
        return self.inner.victim_order(pool, now_s)

    def select_victims(
        self, pool: ContainerPool, needed_mb: float, now_s: float
    ) -> Optional[List[Container]]:
        return self.inner.select_victims(pool, needed_mb, now_s)

    def expired_containers(
        self, pool: ContainerPool, now_s: float
    ) -> List[Tuple[Container, float]]:
        return self.inner.expired_containers(pool, now_s)

    def next_expiry_s(self, pool: ContainerPool) -> float:
        return self.inner.next_expiry_s(pool)

    def due_prewarms(self, now_s: float) -> List[PrewarmRequest]:
        return self.inner.due_prewarms(now_s)

    def next_prewarm_s(self) -> float:
        return self.inner.next_prewarm_s()

    # ------------------------------------------------------------------
    # The admission gate
    # ------------------------------------------------------------------

    def should_retain(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> bool:
        count = self._admission_counts.get(container.function.name, 0)
        if count >= self.admission_threshold:
            return True
        self.rejections += 1
        return False

    def reset(self) -> None:
        super().reset()
        self.inner.reset()
        self.rejections = 0
        self._admission_counts.clear()
        self._since_aging = 0

    def __repr__(self) -> str:
        return (
            f"DoorkeeperPolicy(inner={self.inner!r}, "
            f"threshold={self.admission_threshold})"
        )
