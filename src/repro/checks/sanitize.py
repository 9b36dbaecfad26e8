"""The runtime invariant sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The static rules in :mod:`repro.checks.linter` catch determinism
hazards at lint time; this module catches *accounting* bugs at run
time. When enabled, cheap assertion hooks fire inside
:class:`repro.core.pool.ContainerPool` and
:class:`repro.sim.scheduler.KeepAliveSimulator`:

* **memory conservation** — after every admission/eviction, the sum of
  live container memory must equal the pool's incremental ``used_mb``,
  and the idle/unpinned subset must equal ``evictable_mb``;
* **victim-index monotonicity** — the lazy heap behind
  ``iter_victims`` yields containers in ascending key order only if
  policies honour the monotone-priority contract; the sanitizer
  asserts each yielded key is >= its predecessor;
* **trace/metrics counter equality** — at the end of ``run()`` the
  lifecycle counters rebuilt from the event stream must equal
  :meth:`SimulationMetrics.counters` (the contract the
  trace-consistency CI job checks end-to-end; the sanitizer checks it
  on *every* sanitized run).

Zero overhead when disabled: components capture the flag once at
construction (mirroring the ``None``-tracer convention of
:mod:`repro.obs.tracer`), so the hot path pays nothing — not even an
environment lookup. The ``sanitize`` CI job runs the tier-1 suite with
``REPRO_SANITIZE=1``; the call budgets of
``tests/test_hot_path_budget.py`` guard the disabled path.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:
    from repro.obs.report import ReportSink, TraceReport

__all__ = [
    "SanitizeError",
    "sanitize_enabled",
    "set_sanitize",
    "ReportSink",
    "check_counter_equality",
    "check_tenant_counter_equality",
]


class SanitizeError(AssertionError):
    """An internal invariant the sanitizer watches was violated.

    Subclasses ``AssertionError`` because a violation means the
    simulator's own bookkeeping is inconsistent — a bug, never a user
    error.
    """


#: Test override: ``set_sanitize(True/False)`` beats the environment,
#: ``set_sanitize(None)`` defers back to it.
_FORCED: Optional[bool] = None

_FALSEY = ("", "0", "false", "no", "off")


def sanitize_enabled() -> bool:
    """Whether newly-constructed components should install hooks.

    Read once at construction time by each component — flipping the
    environment variable mid-simulation does not retrofit hooks.
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_SANITIZE", "").lower() not in _FALSEY


def set_sanitize(value: Optional[bool]) -> None:
    """Force the sanitizer on/off for this process (``None`` defers to
    the ``REPRO_SANITIZE`` environment variable). Test hook."""
    global _FORCED
    _FORCED = value


def __getattr__(name: str) -> Any:
    """``ReportSink`` lives beside :class:`TraceReport`; resolving it on
    first use keeps ``repro.obs.report`` out of an unsanitized run."""
    if name != "ReportSink":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.obs.report import ReportSink

    return ReportSink


def check_counter_equality(
    report: TraceReport, counters: Mapping[str, int]
) -> None:
    """Raise :class:`SanitizeError` unless the counters rebuilt from
    the event stream equal the simulator's aggregate counters."""
    mismatches = report.check_counters(counters)
    if mismatches:
        raise SanitizeError(
            "trace/metrics counter equality violated: "
            + "; ".join(mismatches)
        )


def check_tenant_counter_equality(
    report: TraceReport, tenant_counters: Mapping[int, Mapping[str, int]]
) -> None:
    """Raise :class:`SanitizeError` unless the per-tenant counters
    rebuilt from the events' ``tenant`` fields equal the simulator's
    per-tenant aggregates (the multi-tenant half of the contract;
    vacuously true on tenant-less runs where both sides are empty)."""
    mismatches = report.check_tenant_counters(tenant_counters)
    if mismatches:
        raise SanitizeError(
            "trace/metrics tenant-counter equality violated: "
            + "; ".join(mismatches)
        )
