"""The one run configuration of the keep-alive simulator.

Every knob of a replay that is not the workload, the policy, the pool
size or the (process-local) tracer is a field of :class:`RunConfig`.
Entry points build one and hand it down unchanged; the loose keywords
they also accept (``warmup_s=…``, ``fault_spec=…``) are folded into it
by :meth:`RunConfig.split`, so the names are declared only here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.pool import TENANT_MODES
from repro.faults import FaultSpec

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Simulator knobs, validated once at construction.

    A frozen value of plain picklable fields, so a parallel sweep can
    broadcast it to its workers as-is.
    """

    #: Record ``(time, used_mb)`` samples into
    #: ``SimulationMetrics.memory_timeline``, at most one per
    #: ``timeline_interval_s`` of trace time.
    track_memory_timeline: bool = False
    timeline_interval_s: float = 60.0
    #: Section 9's explicit-initialization discussion: a prefetched
    #: (HIST) container only skips the application-level initialization
    #: if the function provides an explicit init callback, which the
    #: paper found FaaS applications rarely do. 1.0 means prewarming
    #: covers the whole init cost (explicit init everywhere); 0.0 means
    #: the first invocation on a prewarmed container still pays the
    #: full init (prewarming only saved the environment creation the
    #: trace's cold overhead does not include anyway).
    prewarm_effectiveness: float = 1.0
    #: Function name -> number of *pinned* containers created before
    #: replay — AWS-style provisioned concurrency (the paper's
    #: introduction cites exactly this industry mechanism). Pinned
    #: containers serve warm starts but can never be evicted or
    #: expired, so they both guarantee their function's warmth and
    #: permanently shrink the cache available to everyone else.
    reserved_concurrency: Optional[Mapping[str, int]] = None
    #: Measurement warmup: invocations before this time are simulated
    #: with full fidelity (they populate the cache and the policy
    #: state) but are not counted in the metrics, removing the
    #: compulsory-miss transient from short replays — standard
    #: discrete-event-simulation practice.
    warmup_s: float = 0.0
    #: Deterministic fault injection and retry/shed recovery
    #: (``docs/robustness.md``). ``None`` or an all-zero spec leaves
    #: the failure-free path byte-identical to a run without one.
    fault_spec: Optional[FaultSpec] = None
    #: Identifies this server in ``server_down``/``server_recovered``
    #: events and as the coordinate of its outage/capacity schedule.
    server_index: int = 0
    #: The pool's multi-tenant behavior (docs/multi-tenancy.md):
    #: ``shared`` (single-owner semantics), ``partitioned`` (hard
    #: per-tenant capacity slices), or ``quota`` (soft limits — an
    #: over-quota tenant becomes preferentially evictable).
    tenant_mode: str = "shared"
    #: Tenant id -> slice/quota MB; if omitted in a non-shared mode,
    #: capacity is split equally across the tenants of the trace.
    tenant_quotas: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.prewarm_effectiveness <= 1.0:
            raise ValueError(
                f"prewarm effectiveness must be in [0, 1], "
                f"got {self.prewarm_effectiveness}"
            )
        if self.warmup_s < 0.0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup_s}")
        if self.tenant_mode not in TENANT_MODES:
            raise ValueError(
                f"tenant_mode must be one of {TENANT_MODES}, got "
                f"{self.tenant_mode!r}"
            )

    @classmethod
    def split(
        cls,
        kwargs: Mapping[str, object],
        base: Optional["RunConfig"] = None,
    ) -> Tuple["RunConfig", Dict[str, object]]:
        """Fold the config fields found in ``kwargs`` over ``base``
        (default: all defaults); returns the config and the keywords
        that are not fields — an entry point's policy kwargs."""
        own = {k: v for k, v in kwargs.items() if k in _FIELD_NAMES}
        rest = {k: v for k, v in kwargs.items() if k not in _FIELD_NAMES}
        return dataclasses.replace(base or cls(), **own), rest

    @classmethod
    def resolve(
        cls, base: Optional["RunConfig"], fields: Mapping[str, object]
    ) -> "RunConfig":
        """:meth:`split` for entry points with no other keywords: a
        name that is not a field is a ``TypeError``, as it would be on
        an explicit signature."""
        config, unknown = cls.split(fields, base)
        if unknown:
            raise TypeError(
                f"unexpected keyword argument(s): {sorted(unknown)}"
            )
        return config


_FIELD_NAMES = frozenset(f.name for f in dataclasses.fields(RunConfig))
