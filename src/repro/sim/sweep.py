"""Parameter sweeps over (policy, memory size) grids.

Figures 5 and 6 of the paper plot, for each of three trace samples,
the execution-time increase and the cold-start fraction of seven
keep-alive policies across a range of server memory sizes. This module
runs those grids and returns tidy result tables the benchmark harness
and plotting code consume.

:func:`run_sweep` is the one grid runner: in this process, or on a
process pool, as the artifact's ``many_run.py`` ran one process per
cell. On the pool the trace is broadcast once per worker (a cell
submission carries only its coordinates), cells stream back as they
finish, a pool whose worker died hard is rebuilt, and after
``_MAX_POOL_GENERATIONS`` crashes each leftover cell runs in a
quarantine pool of its own.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.container import restart_container_ids
from repro.core.policies import PAPER_POLICIES, create_policy
from repro.faults import cell_fault_spec
from repro.obs.counters import fingerprint_counters
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.sim.config import RunConfig
from repro.sim.scheduler import SimulationResult, simulate
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
    identically; ``tests/test_pinned_replays.py`` pins one to catch
    silent result drift.

    The per-tenant payload joins the hash only when the cell actually
    has one: tenant-less cells fingerprint exactly as they did before
    multi-tenancy existed, so pinned fingerprints stay valid.
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

    A cell that still raises after its retries lands in
    ``failed_cells`` instead of discarding the surviving grid; callers
    that need the whole grid call :meth:`require_complete`.
    """

    trace_name: str
    points: List[SweepPoint] = field(default_factory=list)
    failed_cells: List[FailedCell] = field(default_factory=list)

    def require_complete(self) -> "SweepResult":
        """This result, or :class:`RuntimeError` naming each failed cell."""
        if self.failed_cells:
            cells = "; ".join(
                f"{c.policy} @ {c.memory_gb:g} GB: {c.error}"
                for c in self.failed_cells
            )
            raise RuntimeError(
                f"{len(self.failed_cells)} sweep cells failed on "
                f"{self.trace_name!r}: {cells}"
            )
        return self

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

    Path-addressable, so pool workers each (re-)open their own sink
    instead of inheriting a parent file handle, and every mode of
    :func:`run_sweep` writes the same layout.
    """
    return pathlib.Path(trace_dir) / f"{policy_name}_{memory_gb:g}GB.jsonl"


def run_cell(
    trace: Trace,
    policy_name: str,
    memory_gb: float,
    trace_dir: Optional[str] = None,
    config: Optional[RunConfig] = None,
    policy_kwargs: Optional[Mapping[str, object]] = None,
    **config_fields,
) -> SweepPoint:
    """Run one (policy, memory) cell, through
    :func:`~repro.sim.scheduler.simulate` (so a cell memory pressure
    cannot reach is answered by the vectorized kernel).

    ``trace_dir`` writes the cell's events to its own JSONL file (see
    :func:`cell_trace_path`). Container ids restart at 0 for each cell,
    so the file is the same bytes whichever process ran the cell and
    whatever ran there before it.

    ``config`` (and/or its fields as keywords, e.g. ``fault_spec=…``,
    ``tenant_mode=…``) is the *sweep-level*
    :class:`~repro.sim.config.RunConfig`. Its ``fault_spec`` is the
    sweep-level spec: the cell derives its own seed from it via
    :func:`repro.faults.cell_fault_spec`, a pure function of the cell
    coordinates. Cells therefore see independent fault draws, while
    any re-execution of the same cell — in this process, in a pool
    worker, or a retry after a worker crash — replays the identical
    fault sequence.

    ``policy_kwargs`` are forwarded to :func:`create_policy` (e.g.
    GD's ``tenant_weights``) — callers own matching them to policies
    that accept them.
    """
    config = RunConfig.resolve(config, config_fields)
    sink = None
    if trace_dir is not None:
        sink = JsonlSink(
            cell_trace_path(trace_dir, policy_name, memory_gb), eager=True
        )
    spec = config.fault_spec
    if spec is not None:
        config = dataclasses.replace(
            config, fault_spec=cell_fault_spec(spec, policy_name, memory_gb)
        )
    try:
        policy = create_policy(policy_name, **dict(policy_kwargs or {}))
        restart_container_ids()
        result = simulate(
            trace, policy, memory_gb * GB_MB, config,
            tracer=None if sink is None else Tracer(sink),
        )
        return point_from_result(policy_name, memory_gb, result)
    finally:
        if sink is not None:
            sink.close()


#: What every cell of one sweep shares, broadcast once per pool worker
#: through the initializer so a cell submission only pickles its
#: (policy, memory) coordinates: ``(trace, trace_dir, config,
#: policy_kwargs)``. The event-trace directory travels as a *path* —
#: each worker opens its own per-cell JSONL sink, so no file handle
#: ever crosses a process boundary.
_Broadcast = Tuple[Trace, Optional[str], RunConfig, Optional[Mapping[str, object]]]
_WORKER_STATE: Optional[_Broadcast] = None

#: How many times a crashed pool is rebuilt before falling back to
#: per-cell quarantine. Rebuilding keeps the surviving cells parallel;
#: the cap stops a systematically-crashing environment from looping.
_MAX_POOL_GENERATIONS = 3

#: ``progress(done, total, policy, memory_gb)``, called as each cell
#: settles (point produced or finally failed).
ProgressCallback = Callable[[int, int, str, float], None]


def _init_worker(*state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_cell(policy_name: str, memory_gb: float) -> SweepPoint:
    """Worker-side cell execution against the broadcast state."""
    if _WORKER_STATE is None:
        raise RuntimeError("worker pool was not initialized with a trace")
    trace, trace_dir, config, policy_kwargs = _WORKER_STATE
    return run_cell(
        trace, policy_name, memory_gb, trace_dir=trace_dir,
        config=config, policy_kwargs=policy_kwargs,
    )


def run_sweep(
    trace: Trace,
    memory_gbs: Sequence[float],
    policies: Iterable[str] = PAPER_POLICIES,
    max_workers: Optional[int] = 1,
    progress: Optional[ProgressCallback] = None,
    retries: int = 1,
    trace_dir: Optional[str] = None,
    config: Optional[RunConfig] = None,
    policy_kwargs: Optional[Mapping[str, object]] = None,
    **config_fields,
) -> SweepResult:
    """Simulate every (policy, memory) cell over ``trace``.

    ``max_workers=1`` runs the cells in this process, one after the
    other (also the safe choice inside an already-parallel harness);
    any larger count fans them out over that many worker processes,
    and ``None`` over one per CPU.

    Each failing cell is retried ``retries`` times; a cell that still
    fails lands in the returned :attr:`SweepResult.failed_cells` (as
    ``(policy, memory_gb, error)``, sorted) while every other point is
    kept — a partial grid instead of a lost one. Points are ordered
    policy-major, then memory, with failed cells skipped.
    ``progress(done, total, policy, memory_gb)`` is called as each
    cell settles.

    ``trace_dir`` writes one JSONL event file per cell (see
    :func:`cell_trace_path`) in every mode. ``config`` / its fields as
    keywords and ``policy_kwargs`` apply to every cell; a
    ``fault_spec`` injects deterministic faults into each under its
    own coordinate-derived seed (see :func:`run_cell`), so faulted and
    tenant-aware grids are equal in every mode.
    """
    config = RunConfig.resolve(config, config_fields)
    if max_workers is not None and not (
        isinstance(max_workers, int) and max_workers >= 1
    ):
        raise ValueError(f"max_workers must be None or >= 1, got {max_workers!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    cells: List[Tuple[str, float]] = [
        (policy, memory_gb)
        for policy in policies
        for memory_gb in memory_gbs
    ]
    result = SweepResult(trace_name=trace.name)
    total = len(cells)
    points_by_cell: Dict[int, SweepPoint] = {}
    # Cells without a verdict yet, with the retries each has used. It
    # outlives a crashed pool, so a rebuilt pool resubmits each cell
    # with its old count: a crash uses no retry, a cell's own
    # exception one, whichever pool generation it lands in.
    remaining: Dict[int, int] = dict.fromkeys(range(total), 0)

    def settle(index: int, verdict: SweepPoint | Exception) -> None:
        """Record a cell's point, or the exception it finally failed with."""
        del remaining[index]
        if isinstance(verdict, Exception):
            result.failed_cells.append(FailedCell(*cells[index], repr(verdict)))
        else:
            points_by_cell[index] = verdict
        if progress is not None:
            progress(total - len(remaining), total, *cells[index])

    def settled(index: int, attempt: Callable[[], SweepPoint]) -> bool:
        """Run one ``attempt`` of a cell: False when it raised with a
        retry left (and used it), else True once the cell is settled."""
        try:
            verdict = attempt()
        except BrokenProcessPool:
            raise
        except Exception as exc:
            if remaining[index] < retries:
                remaining[index] += 1
                return False
            verdict = exc
        settle(index, verdict)
        return True

    if max_workers == 1:
        for index, cell in enumerate(cells):
            attempt = functools.partial(
                run_cell, trace, *cell, trace_dir=trace_dir,
                config=config, policy_kwargs=policy_kwargs,
            )
            while not settled(index, attempt):
                pass
    state: _Broadcast = (trace, trace_dir, config, policy_kwargs)
    for __ in range(_MAX_POOL_GENERATIONS):
        if not remaining:
            break
        try:
            with ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=state,
            ) as pool:
                futures = {
                    pool.submit(_run_cell, *cells[index]): index
                    for index in sorted(remaining)
                }
                while futures:
                    finished = wait(futures, return_when=FIRST_COMPLETED).done
                    for future in finished:
                        index = futures.pop(future)
                        if not settled(index, future.result):
                            futures[pool.submit(_run_cell, *cells[index])] = index
        except BrokenProcessPool:
            # A worker died hard; every sibling future fails alike.
            # Rebuild the pool for the cells still in ``remaining``.
            pass

    # Cells still unfinished after the generation cap: something keeps
    # hard-killing workers. Quarantine each in its own solo pool so
    # the poison stays contained and every cell still gets a verdict.
    for index in sorted(remaining):
        try:
            with ProcessPoolExecutor(
                max_workers=1, initializer=_init_worker, initargs=state
            ) as solo:
                verdict = solo.submit(_run_cell, *cells[index]).result()
        except Exception as exc:
            verdict = exc
        settle(index, verdict)

    result.points = [
        points_by_cell[i] for i in range(total) if i in points_by_cell
    ]
    result.failed_cells.sort(key=lambda c: (c.policy, c.memory_gb))
    return result
