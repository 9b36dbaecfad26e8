"""``repro.faults`` — deterministic fault injection and recovery.

The robustness layer of the reproduction. FaasCache's published
numbers are measured on failure-free runs; this package makes failures
a *sweepable experiment axis*: a seeded :class:`FaultSpec` describes
container spawn failures, invocation crashes/timeouts, and whole-server
outages, and every injection decision is a pure function of the seed
and the invocation's identity — never of draw order — so the same spec
produces byte-identical metrics across runs, across worker processes,
and across retried sweep cells.

Quick tour::

    from repro.faults import FaultSpec
    from repro.sim.scheduler import simulate

    spec = FaultSpec(seed=7, spawn_failure_rate=0.05, crash_rate=0.02)
    result = simulate(trace, "GD", 4096, fault_spec=spec)
    result.metrics.retries, result.metrics.sheds

A spec whose every rate is zero and whose schedule is empty is
*disabled*: the simulators store ``None`` and take exactly the same
code path as a run with no spec at all, so baselines are unperturbed.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.model import (
        CapacityStep, FaultModel, FaultSpec, ServerDowntime, cell_fault_spec, derive_seed,
        load_fault_spec,
    )
    from repro.faults.retry import RetryPolicy

__all__ = [
    "CapacityStep", "FaultModel", "FaultSpec", "ServerDowntime",
    "RetryPolicy",
    "cell_fault_spec", "derive_seed", "load_fault_spec",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "model": (
        "CapacityStep FaultModel FaultSpec ServerDowntime cell_fault_spec derive_seed "
        "load_fault_spec"
    ),
    "retry": "RetryPolicy",
})
