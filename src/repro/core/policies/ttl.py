"""Fixed time-to-live keep-alive (the OpenWhisk default baseline).

OpenWhisk keeps every function container alive for a constant 10
minutes after its last use (Section 1). This policy is **not**
resource-conserving: a container is terminated when its TTL lapses
even if memory is plentiful. Under memory pressure, victims are chosen
in LRU order (Section 7.1: "When the server is full, this TTL policy
evicts containers in an LRU order").
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, register_policy
from repro.core.pool import ContainerPool
from repro.domains import check_args, positive

__all__ = ["TTLPolicy", "OPENWHISK_DEFAULT_TTL_S"]

#: OpenWhisk's default container time-to-live: 10 minutes.
OPENWHISK_DEFAULT_TTL_S = 600.0


@register_policy("TTL")
class TTLPolicy(KeepAlivePolicy):
    """Constant TTL expiry with LRU eviction under pressure."""

    # Pressure evictions are LRU-ordered (last_used_s, monotone), so
    # the lazy victim index applies; TTL expiry is a separate path.
    monotone_priority = True

    #: ``inf``: a container never expires.
    domains = {"ttl_s": positive.or_inf}

    def __init__(self, ttl_s: float = OPENWHISK_DEFAULT_TTL_S) -> None:
        super().__init__()
        check_args(self.domains, locals())
        self.ttl_s = ttl_s

    # ------------------------------------------------------------------
    # Expiry via the pool's incremental index
    # ------------------------------------------------------------------
    #
    # A container's TTL clock restarts at its last use, and
    # ``last_used_s`` lands on ``busy_until_s`` when the invocation
    # finishes — which is already known when the start hooks fire (the
    # invoker starts the invocation before notifying the policy). So
    # each start schedules the post-completion deadline directly and
    # ``expired_containers`` is a heap peek instead of a pool rescan.
    # The index defers busy containers internally, preserving the old
    # scan's semantics of only expiring idle ones.

    def _schedule(self, container: Container, pool: ContainerPool) -> None:
        pool.schedule_expiry(container, container.busy_until_s + self.ttl_s)

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self._schedule(container, pool)

    def on_cold_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self._schedule(container, pool)

    def expired_containers(
        self, pool: ContainerPool, now_s: float
    ) -> List[Tuple[Container, float]]:
        return pool.pop_expired(now_s)

    def next_expiry_s(self, pool: ContainerPool) -> float:
        # Every deadline lives in the pool's expiry index.
        return pool.next_expiry_s()

    def priority(self, container: Container, now_s: float) -> float:
        # LRU order under memory pressure.
        return container.last_used_s

    def __repr__(self) -> str:
        return f"TTLPolicy(ttl_s={self.ttl_s})"
