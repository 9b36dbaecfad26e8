"""Core keep-alive machinery: containers, pools, clocks, and policies."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.clock import LogicalClock
    from repro.core.container import Container, ContainerState
    from repro.core.function import FunctionStats, FunctionStatsTable
    from repro.core.pool import CapacityError, ContainerPool

__all__ = [
    "LogicalClock",
    "Container", "ContainerState",
    "FunctionStats", "FunctionStatsTable",
    "CapacityError", "ContainerPool",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "clock": "LogicalClock",
    "container": "Container ContainerState",
    "function": "FunctionStats FunctionStatsTable",
    "pool": "CapacityError ContainerPool",
})
