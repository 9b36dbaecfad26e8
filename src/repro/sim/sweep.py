"""Parameter sweeps over (policy, memory size) grids.

Figures 5 and 6 of the paper plot, for each of three trace samples,
the execution-time increase and the cold-start fraction of seven
keep-alive policies across a range of server memory sizes. This module
runs those grids and returns tidy result tables the benchmark harness
and plotting code consume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.policies import PAPER_POLICIES, create_policy
from repro.faults import cell_fault_spec
from repro.obs.counters import fingerprint_counters
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.sim.config import RunConfig
from repro.sim.scheduler import KeepAliveSimulator, SimulationResult
from repro.sim.server import GB_MB
from repro.traces.model import Trace

__all__ = [
    "SweepPoint",
    "FailedCell",
    "SweepResult",
    "run_sweep",
    "run_cell",
    "cell_trace_path",
    "memory_sizes_gb",
    "point_from_result",
    "point_fingerprint",
]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the sweep grid.

    The two throughput fields are observability, not simulation
    output: they vary between identical runs and are therefore
    excluded from equality, keeping sequential and parallel sweeps of
    the same grid bit-identical under ``==``.
    """

    policy: str
    memory_gb: float
    cold_start_pct: float
    exec_time_increase_pct: float
    drop_ratio: float
    hit_ratio: float
    global_hit_ratio: float
    #: Wall-clock seconds this cell's replay took.
    wall_time_s: float = field(default=0.0, compare=False)
    #: Invocations simulated per wall-clock second for this cell.
    invocations_per_s: float = field(default=0.0, compare=False)
    #: Snapshot of the cell's integer lifecycle counters
    #: (:meth:`SimulationMetrics.counters`). Deterministic, but kept
    #: out of ``==``/``hash`` so points stay hashable and older
    #: hand-built points (without counters) still compare equal.
    counters: Mapping[str, int] = field(default_factory=dict, compare=False)
    #: Per-tenant lifecycle counters
    #: (:meth:`SimulationMetrics.tenant_counters`), keyed by the
    #: *string form* of the tenant id so the snapshot JSON-round-trips
    #: unchanged. Empty on tenant-less cells, and excluded from
    #: ``==``/``hash`` for the same reasons as ``counters``.
    tenant_counters: Mapping[str, Mapping[str, int]] = field(
        default_factory=dict, compare=False
    )
    #: Jain fairness index over the cell's per-tenant warm-hit ratios
    #: (1.0 on tenant-less cells — the degenerate perfectly-fair case).
    jain_fairness_index: float = field(default=1.0, compare=False)


@dataclass(frozen=True)
class FailedCell:
    """A sweep cell that raised (after retry) instead of producing a
    :class:`SweepPoint`."""

    policy: str
    memory_gb: float
    error: str


def point_from_result(
    policy_name: str, memory_gb: float, result: SimulationResult
) -> SweepPoint:
    """Flatten one simulation outcome into a sweep-grid cell."""
    metrics = result.metrics
    return SweepPoint(
        policy=policy_name,
        memory_gb=memory_gb,
        cold_start_pct=metrics.cold_start_pct,
        exec_time_increase_pct=metrics.exec_time_increase_pct,
        drop_ratio=metrics.drop_ratio,
        hit_ratio=metrics.hit_ratio,
        global_hit_ratio=metrics.global_hit_ratio,
        wall_time_s=metrics.wall_time_s,
        invocations_per_s=metrics.invocations_per_s,
        counters=metrics.counters(),
        tenant_counters={
            str(tid): dict(counts)
            for tid, counts in metrics.tenant_counters().items()
        },
        jain_fairness_index=metrics.jain_fairness_index,
    )


def point_fingerprint(point: SweepPoint) -> str:
    """SHA-256 over the deterministic fields of a sweep cell.

    Covers the identity (policy, memory), the headline ratios at full
    ``repr`` precision, and the sorted lifecycle counters — but not
    the wall-clock observability fields, which vary between identical
    runs. Two replays of the same seeded cell must fingerprint
    identically; the benchmark regression gate relies on this to
    detect silent result drift.

    The per-tenant payload joins the hash only when the cell actually
    has one: tenant-less cells fingerprint exactly as they did before
    multi-tenancy existed, so committed baselines
    (``benchmarks/BASELINE.json``) stay valid without regeneration.
    The harvested-capacity counters follow the same rule
    (:func:`repro.obs.counters.fingerprint_counters`): a zero counter
    (no harvest/spot activity) is dropped from the hash, so
    harvest-free cells fingerprint exactly as before the subsystem
    existed.
    """
    payload = {
        "policy": point.policy,
        "memory_gb": repr(point.memory_gb),
        "cold_start_pct": repr(point.cold_start_pct),
        "exec_time_increase_pct": repr(point.exec_time_increase_pct),
        "drop_ratio": repr(point.drop_ratio),
        "hit_ratio": repr(point.hit_ratio),
        "global_hit_ratio": repr(point.global_hit_ratio),
        "counters": fingerprint_counters(point.counters),
    }
    if point.tenant_counters:
        payload["tenant_counters"] = {
            key: dict(sorted(counts.items()))
            for key, counts in sorted(point.tenant_counters.items())
        }
        payload["jain_fairness_index"] = repr(point.jain_fairness_index)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class SweepResult:
    """All points of a sweep over one trace.

    ``failed_cells`` is always empty for the sequential
    :func:`run_sweep` (a raising cell propagates); the parallel runner
    fills it instead of discarding the surviving grid — callers that
    need completeness must check it.
    """

    trace_name: str
    points: List[SweepPoint] = field(default_factory=list)
    failed_cells: List[FailedCell] = field(default_factory=list)

    def series(self, policy: str, metric: str) -> List[tuple]:
        """(memory_gb, value) pairs for one policy, sorted by memory."""
        pairs = [
            (p.memory_gb, getattr(p, metric))
            for p in self.points
            if p.policy == policy
        ]
        return sorted(pairs)

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.policy, None)
        return list(seen)

    def memory_sizes(self) -> List[float]:
        return sorted({p.memory_gb for p in self.points})

    def best_policy_at(self, memory_gb: float, metric: str) -> str:
        """The policy with the lowest ``metric`` at one memory size."""
        candidates = [
            p for p in self.points if abs(p.memory_gb - memory_gb) < 1e-9
        ]
        if not candidates:
            raise ValueError(f"no sweep points at {memory_gb} GB")
        return min(candidates, key=lambda p: getattr(p, metric)).policy

    def total_counters(self) -> Dict[str, int]:
        """Grid-wide sums of the per-cell lifecycle counters."""
        totals: Dict[str, int] = {}
        for point in self.points:
            for key, value in point.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals


def memory_sizes_gb(start_gb: float, stop_gb: float, step_gb: float) -> List[float]:
    """Inclusive memory-size grid, e.g. the paper's 500 MB steps."""
    if step_gb <= 0:
        raise ValueError(f"step must be positive, got {step_gb}")
    sizes = []
    size = start_gb
    while size <= stop_gb + 1e-9:
        sizes.append(round(size, 6))
        size += step_gb
    return sizes


def cell_trace_path(
    trace_dir: str | pathlib.Path, policy_name: str, memory_gb: float
) -> pathlib.Path:
    """The JSONL file one sweep cell's events go to under ``trace_dir``.

    Shared by the sequential and parallel engines so both produce the
    same layout, and path-addressable so parallel workers can each
    (re-)open their own sink instead of inheriting a parent file
    handle.
    """
    return pathlib.Path(trace_dir) / f"{policy_name}_{memory_gb:g}GB.jsonl"


def run_cell(
    trace: Trace,
    policy_name: str,
    memory_gb: float,
    tracer: Optional[Tracer] = None,
    trace_dir: Optional[str] = None,
    config: Optional[RunConfig] = None,
    policy_kwargs: Optional[Mapping[str, object]] = None,
    **config_fields,
) -> SweepPoint:
    """Run one (policy, memory) cell with optional tracing.

    ``tracer`` (in-process use) is bound with the cell coordinates so
    a single sink can receive several cells' events distinguishably;
    ``trace_dir`` instead writes the cell's events to its own JSONL
    file (see :func:`cell_trace_path`) — the only tracing mode that is
    safe across processes.

    ``config`` (and/or its fields as keywords, e.g. ``fault_spec=…``,
    ``tenant_mode=…``) is the *sweep-level*
    :class:`~repro.sim.config.RunConfig`. Its ``fault_spec`` is the
    sweep-level spec: the cell derives its own seed from it via
    :func:`repro.faults.cell_fault_spec`, a pure function of the cell
    coordinates. Cells therefore see independent fault draws, while
    any re-execution of the same cell — sequential, parallel, or a
    retry after a worker crash — replays the identical fault sequence.

    ``policy_kwargs`` are forwarded to :func:`create_policy` (e.g.
    GD's ``tenant_weights``) — callers own matching them to policies
    that accept them.
    """
    config = RunConfig.resolve(config, config_fields)
    cell_tracer = None
    owned_sink = None
    if trace_dir is not None:
        if tracer is not None:
            raise ValueError("pass either tracer or trace_dir, not both")
        owned_sink = JsonlSink(
            cell_trace_path(trace_dir, policy_name, memory_gb), eager=True
        )
        cell_tracer = Tracer(owned_sink)
    elif tracer is not None:
        cell_tracer = tracer.bind(policy=policy_name, memory_gb=memory_gb)
    spec = config.fault_spec
    if spec is not None:
        config = dataclasses.replace(
            config, fault_spec=cell_fault_spec(spec, policy_name, memory_gb)
        )
    try:
        policy = create_policy(policy_name, **dict(policy_kwargs or {}))
        sim = KeepAliveSimulator(
            trace, policy, memory_gb * GB_MB, config, tracer=cell_tracer
        )
        return point_from_result(policy_name, memory_gb, sim.run())
    finally:
        if owned_sink is not None:
            owned_sink.close()


def run_sweep(
    trace: Trace,
    memory_gbs: Sequence[float],
    policies: Iterable[str] = PAPER_POLICIES,
    progress: Optional[Callable[[str, float], None]] = None,
    tracer: Optional[Tracer] = None,
    trace_dir: Optional[str] = None,
    config: Optional[RunConfig] = None,
    policy_kwargs: Optional[Mapping[str, object]] = None,
    **config_fields,
) -> SweepResult:
    """Simulate every (policy, memory) cell over ``trace``.

    Each cell gets a fresh policy instance, so runs are independent and
    order-insensitive. ``progress`` (if given) is called with the
    policy name and memory size before each cell, for long sweeps.

    Tracing: ``tracer`` streams every cell's events to one sink, each
    event stamped with its ``policy``/``memory_gb`` context;
    ``trace_dir`` writes one JSONL file per cell instead (the layout
    the parallel engine also produces).

    ``config`` / its fields as keywords apply to every cell; a
    ``fault_spec`` injects deterministic faults into each under its
    own coordinate-derived seed (see :func:`run_cell`).
    """
    config = RunConfig.resolve(config, config_fields)
    result = SweepResult(trace_name=trace.name)
    for policy_name in policies:
        for memory_gb in memory_gbs:
            if progress is not None:
                progress(policy_name, memory_gb)
            result.points.append(
                run_cell(
                    trace,
                    policy_name,
                    memory_gb,
                    tracer=tracer,
                    trace_dir=trace_dir,
                    config=config,
                    policy_kwargs=policy_kwargs,
                )
            )
    return result
