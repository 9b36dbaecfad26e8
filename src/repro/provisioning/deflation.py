"""Cascade VM deflation (Sections 5.2 and 6).

When the controller shrinks the server, FaasCache uses *cascade
deflation* [Sharma et al., EuroSys 19]: reclaim memory from the
cheapest mechanism first —

1. **Container-pool shrink** — evict warm containers (in the
   keep-alive policy's priority order) until the pool fits the new
   size. Nearly free: the cost is future cold starts, which the
   policy already prices. This stage is the engines' one capacity seam
   (``KeepAliveSimulator.set_capacity``); nothing here evicts.
2. **Guest-OS memory hot-unplug** — return now-free guest memory to
   the hypervisor; modelled with a per-GB latency.
3. **Hypervisor page swapping** — the expensive fallback when memory
   cannot be unplugged (e.g. fragmentation); also a per-GB latency,
   an order of magnitude slower.

The model reports how much each stage reclaimed and the total
actuation latency, so experiments can weigh controller aggressiveness
against deflation cost. Running containers are never touched: what
they hold below the requested size is deferred and lands as they
finish, so ``achieved_mb`` is the size at actuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.container import Container

__all__ = ["DeflationReport", "DeflationEngine"]


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
    """The stage-2/3 latency model of a resize the pool already made."""

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

    def report(
        self,
        requested_mb: float,
        old_mb: float,
        achieved_mb: float,
        victims: Sequence[Container],
    ) -> DeflationReport:
        """Price one actuation of the capacity seam
        (:meth:`KeepAliveSimulator.set_capacity`,
        :meth:`InvokerContainerPool.resize`): the pool went from
        ``old_mb`` to ``achieved_mb`` — above ``requested_mb`` while
        busy containers defer the rest of a shrink — by evicting
        ``victims``. Inflation is instantaneous (memory hot-plug is
        cheap); what a shrink reclaimed goes back to the host through
        stages 2 and 3.
        """
        reclaimed_gb = max(0.0, old_mb - achieved_mb) / 1024.0
        hot_unplug_gb = reclaimed_gb * self.unplug_fraction
        page_swap_gb = reclaimed_gb - hot_unplug_gb
        return DeflationReport(
            requested_mb=requested_mb,
            achieved_mb=achieved_mb,
            pool_shrink_mb=sum(victim.memory_mb for victim in victims),
            hot_unplug_mb=hot_unplug_gb * 1024.0,
            page_swap_mb=page_swap_gb * 1024.0,
            evicted_containers=len(victims),
            latency_s=(
                hot_unplug_gb * self.hot_unplug_s_per_gb
                + page_swap_gb * self.page_swap_s_per_gb
            ),
        )
