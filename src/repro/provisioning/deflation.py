"""Cascade VM deflation (Sections 5.2 and 6).

When the controller shrinks the server, FaasCache uses *cascade
deflation* [Sharma et al., EuroSys 19]: reclaim memory from the
cheapest mechanism first —

1. **Container-pool shrink** — evict warm containers (in the
   keep-alive policy's priority order) until the pool fits the new
   size. Nearly free: the cost is future cold starts, which the
   policy already prices.
2. **Guest-OS memory hot-unplug** — return now-free guest memory to
   the hypervisor; modelled with a per-GB latency.
3. **Hypervisor page swapping** — the expensive fallback when memory
   cannot be unplugged (e.g. fragmentation); also a per-GB latency,
   an order of magnitude slower.

The model reports how much each stage reclaimed and the total
actuation latency, so experiments can weigh controller aggressiveness
against deflation cost. Running containers are never touched: the
capacity floor is the memory of in-flight invocations.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass
from typing import List

from repro.core.container import Container
from repro.core.policies.base import KeepAlivePolicy
from repro.core.pool import ContainerPool

__all__ = ["DeflationReport", "DeflationEngine"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DeflationReport:
    """Outcome of one deflate/inflate actuation."""

    requested_mb: float
    achieved_mb: float
    pool_shrink_mb: float
    hot_unplug_mb: float
    page_swap_mb: float
    evicted_containers: int
    latency_s: float

    @property
    def fully_achieved(self) -> bool:
        return abs(self.achieved_mb - self.requested_mb) < 1e-6


class DeflationEngine:
    """Applies controller size decisions to a live container pool."""

    def __init__(
        self,
        hot_unplug_s_per_gb: float = 0.5,
        page_swap_s_per_gb: float = 5.0,
        unplug_fraction: float = 0.8,
    ) -> None:
        """``unplug_fraction`` is the share of reclaimed memory the
        guest OS can hot-unplug; the rest must be swapped by the
        hypervisor (fragmentation prevents a clean unplug)."""
        if not 0.0 <= unplug_fraction <= 1.0:
            raise ValueError(
                f"unplug fraction must be in [0, 1], got {unplug_fraction}"
            )
        self.hot_unplug_s_per_gb = hot_unplug_s_per_gb
        self.page_swap_s_per_gb = page_swap_s_per_gb
        self.unplug_fraction = unplug_fraction

    def resize(
        self,
        pool: ContainerPool,
        policy: KeepAlivePolicy,
        new_capacity_mb: float,
        now_s: float,
    ) -> DeflationReport:
        """Deflate or inflate ``pool`` toward ``new_capacity_mb``.

        Inflation is instantaneous (memory hot-plug is cheap). For
        deflation, warm containers are evicted in policy-priority
        order first; the capacity never drops below the memory held by
        running containers, so the achieved size may exceed the
        request.
        """
        if new_capacity_mb <= 0:
            raise ValueError(f"capacity must be positive, got {new_capacity_mb}")
        old_capacity = pool.capacity_mb

        if new_capacity_mb >= old_capacity:
            pool.set_capacity(new_capacity_mb)
            return DeflationReport(
                requested_mb=new_capacity_mb,
                achieved_mb=new_capacity_mb,
                pool_shrink_mb=0.0,
                hot_unplug_mb=0.0,
                page_swap_mb=0.0,
                evicted_containers=0,
                latency_s=0.0,
            )

        # Stage 1: shrink the container pool.
        evicted = 0
        pool_shrink_mb = 0.0
        for victim in policy.victim_order(pool, now_s):
            if pool.used_mb <= new_capacity_mb + 1e-9:
                break
            pool.evict(victim)
            policy.on_evict(victim, now_s, pool, pressure=True)
            pool_shrink_mb += victim.memory_mb
            evicted += 1

        running_floor = pool.used_mb
        achieved_mb = max(new_capacity_mb, running_floor)
        pool.set_capacity(achieved_mb)

        # Stages 2 and 3: return the freed memory to the host.
        reclaimed_gb = (old_capacity - achieved_mb) / 1024.0
        hot_unplug_gb = reclaimed_gb * self.unplug_fraction
        page_swap_gb = reclaimed_gb - hot_unplug_gb
        latency_s = (
            hot_unplug_gb * self.hot_unplug_s_per_gb
            + page_swap_gb * self.page_swap_s_per_gb
        )
        logger.debug(
            "deflation at t=%.0fs: %.0f -> %.0f MB (%d containers evicted, "
            "%.1f s latency)",
            now_s,
            old_capacity,
            achieved_mb,
            evicted,
            latency_s,
        )
        return DeflationReport(
            requested_mb=new_capacity_mb,
            achieved_mb=achieved_mb,
            pool_shrink_mb=pool_shrink_mb,
            hot_unplug_mb=hot_unplug_gb * 1024.0,
            page_swap_mb=page_swap_gb * 1024.0,
            evicted_containers=evicted,
            latency_s=latency_s,
        )
