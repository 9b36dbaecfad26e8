"""Segmented LRU keep-alive.

Segmented LRU [Karedla et al.; cited via the paper's Section 2.2] adds
scan resistance to LRU with two segments:

* **probationary** — where containers land on their first (cold)
  admission;
* **protected** — where a container is promoted on a warm hit,
  capped at a fraction of the cache; promoting past the cap demotes
  the protected segment's LRU tail back to probationary.

Victims always come from the probationary segment first (its LRU
tail), so one-shot functions cannot flush the established working set.
Segment budgets are in megabytes, matching variable-size containers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy, register_policy
from repro.core.pool import ContainerPool
from repro.domains import Domain, check_args

__all__ = ["SegmentedLRUPolicy"]


@register_policy("SLRU")
class SegmentedLRUPolicy(KeepAlivePolicy):
    """Two-segment LRU with a protected-fraction cap."""

    domains = {"protected_fraction": Domain(0.0, 1.0, low_open=True, high_open=True)}

    def __init__(self, protected_fraction: float = 0.8) -> None:
        super().__init__()
        check_args(self.domains, locals())
        self.protected_fraction = protected_fraction
        #: container id -> True if in the protected segment.
        self._protected: Dict[int, bool] = {}

    # ------------------------------------------------------------------

    def _protected_used_mb(self, pool: ContainerPool) -> float:
        return sum(
            c.memory_mb
            for c in pool.all_containers()
            if self._protected.get(c.container_id, False)
        )

    def _demote_overflow(self, pool: ContainerPool, now_s: float) -> None:
        """Push the protected LRU tail back to probationary while the
        segment exceeds its budget."""
        budget = self.protected_fraction * pool.capacity_mb
        while self._protected_used_mb(pool) > budget:
            protected = [
                c
                for c in pool.all_containers()
                if self._protected.get(c.container_id, False)
            ]
            if not protected:
                break
            tail = min(
                protected, key=lambda c: (c.last_used_s, c.container_id)
            )
            self._protected[tail.container_id] = False

    def on_cold_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self._protected[container.container_id] = False

    def on_warm_start(
        self, container: Container, now_s: float, pool: ContainerPool
    ) -> None:
        self._protected[container.container_id] = True
        self._demote_overflow(pool, now_s)

    def on_evict(
        self,
        container: Container,
        now_s: float,
        pool: ContainerPool,
        pressure: bool,
    ) -> None:
        self._protected.pop(container.container_id, None)
        super().on_evict(container, now_s, pool, pressure)

    def is_protected(self, container: Container) -> bool:
        return self._protected.get(container.container_id, False)

    def priority(self, container: Container, now_s: float) -> float:
        # Probationary containers sort strictly below protected ones;
        # LRU order within each segment. The offset dominates any
        # realistic timestamp.
        segment_offset = 1e12 if self.is_protected(container) else 0.0
        return segment_offset + container.last_used_s

    def reset(self) -> None:
        super().reset()
        self._protected.clear()
