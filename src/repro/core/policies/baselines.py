"""Trivial eviction baselines: FIFO and RANDOM.

Neither appears in the paper's evaluation, but both are the standard
sanity floors any caching study is read against: FIFO ignores reuse
entirely (eviction order is creation order), and RANDOM is the
zero-information policy. Both are resource-conserving like the other
caching policies — they evict only under memory pressure.
"""

from __future__ import annotations

import random

from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, PrewarmRequest, register_policy
from repro.core.pool import ContainerPool

__all__ = ["FIFOPolicy", "RandomPolicy"]


@register_policy("FIFO")
class FIFOPolicy(KeepAlivePolicy):
    """Evict the oldest-created idle container first."""

    # Creation time is constant per container, so the lazy victim
    # index applies.
    monotone_priority = True

    def priority(self, container: Container, now_s: float) -> float:
        return container.created_at_s


@register_policy("RAND")
class RandomPolicy(KeepAlivePolicy):
    """Evict a uniformly random idle container.

    Deterministic for a given seed: each container draws its priority
    once, when it is created, from the policy's own seeded stream
    (restarted by :meth:`reset`), so repeated runs of the same trace
    produce identical evictions, whatever ran before them.
    """

    # The drawn priority is constant per container, so the lazy victim
    # index applies.
    monotone_priority = True

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._seed = seed
        self._rng = random.Random(seed)

    def on_cold_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        container.priority = self._rng.random()

    def on_prewarm(
        self, container: Container, request: PrewarmRequest, pool: ContainerPool
    ) -> None:
        container.priority = self._rng.random()

    def priority(self, container: Container, now_s: float) -> float:
        return container.priority

    def reset(self) -> None:
        super().reset()
        self._rng = random.Random(self._seed)
