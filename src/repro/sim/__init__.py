"""Trace-driven discrete-event keep-alive simulator (paper Section 6)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.config import RunConfig
    from repro.sim.events import EventQueue
    from repro.sim.metrics import FunctionOutcome, SimulationMetrics
    from repro.sim.parallel import run_sweep_parallel, simulate_cell
    from repro.sim.scheduler import KeepAliveSimulator, SimulationResult, simulate
    from repro.sim.server import GB_MB, ServerConfig
    from repro.sim.sweep import FailedCell, SweepPoint, SweepResult, memory_sizes_gb, run_sweep

__all__ = [
    "FailedCell",
    "EventQueue",
    "FunctionOutcome", "SimulationMetrics",
    "RunConfig",
    "run_sweep_parallel", "simulate_cell",
    "KeepAliveSimulator", "SimulationResult", "simulate",
    "GB_MB", "ServerConfig",
    "SweepPoint", "SweepResult", "memory_sizes_gb", "run_sweep",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": "RunConfig",
    "events": "EventQueue",
    "metrics": "FunctionOutcome SimulationMetrics",
    "parallel": "run_sweep_parallel simulate_cell",
    "scheduler": "KeepAliveSimulator SimulationResult simulate",
    "server": "GB_MB ServerConfig",
    "sweep": "FailedCell SweepPoint SweepResult memory_sizes_gb run_sweep",
})
