"""Parallel sweep execution (the artifact's ``many_run.py`` analog).

The original artifact notes the simulator "is embarrassingly parallel
and is mainly limited by total system memory", running one process per
(policy, memory) cell. This module provides the same fan-out on top of
:func:`repro.sim.sweep.run_sweep`'s cell semantics, using a process
pool. Results are bit-identical to the sequential sweep — each cell
gets a fresh policy instance either way, and points are reassembled in
grid order — so :func:`run_sweep_parallel` is a drop-in replacement
when wall-clock matters (full Figure 5/6 grids).

Engine design (vs. the naive per-cell pickle of earlier revisions):

* **One trace broadcast per worker, not per cell.** The trace is
  shipped once through the pool initializer and cached in a
  module-level global; each cell submission then carries only a
  ``(policy, memory)`` pair. For the artifact's "1 GB RAM per core"
  traces this removes the dominant serialization cost from the hot
  loop.
* **Streaming completion.** Cells are consumed as they finish, with an
  optional ``progress(done, total, policy, memory_gb)`` callback, so
  long grids report liveness instead of blocking until the slowest
  cell.
* **Fault tolerance.** A cell that raises is retried (with, when fault
  injection is on, the *identical* coordinate-derived fault seed — a
  retry replays the same faults, it does not reroll them); a cell that
  exhausts its retries is recorded in ``SweepResult.failed_cells``
  instead of throwing away the rest of the grid. If a worker process
  dies hard (``BrokenProcessPool``), the pool is **rebuilt** and every
  unfinished cell resubmitted — per-cell retry budgets survive the
  rebuild, and a pool crash itself never consumes one. Only after
  several consecutive pool generations die is each leftover cell run
  in its own single-worker quarantine pool, so one poisoned cell
  cannot take down its neighbours.
"""

from __future__ import annotations

import itertools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICIES
from repro.obs.tracer import Tracer
from repro.sim.config import RunConfig
from repro.sim.sweep import FailedCell, SweepResult, run_cell
from repro.traces.model import Trace

__all__ = ["run_sweep_parallel"]

#: What every cell of one sweep shares, broadcast once per worker
#: through the pool initializer so a cell submission only pickles its
#: (policy, memory) coordinates: ``(trace, trace_dir, config,
#: policy_kwargs)``. The event-trace directory travels as a *path* —
#: each worker opens its own per-cell JSONL sink, so no file handle
#: ever crosses a process boundary — and the config's sweep-level
#: fault spec is turned into each cell's seed worker-side
#: (``repro.faults.cell_fault_spec``), so fault decisions are a pure
#: function of the cell coordinates: identical in every process and on
#: every retry.
_Broadcast = Tuple[Trace, Optional[str], RunConfig, Optional[dict]]
_WORKER_STATE: Optional[_Broadcast] = None

#: How many times a crashed pool is rebuilt before falling back to
#: per-cell quarantine. Rebuilding keeps the surviving cells parallel;
#: the cap stops a systematically-crashing environment from looping.
_MAX_POOL_GENERATIONS = 3

#: Callback signature: ``progress(done, total, policy, memory_gb)``,
#: invoked after every cell settles (point produced or finally failed).
ProgressCallback = Callable[[int, int, str, float], None]


def _init_worker(*state) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_cell(policy_name: str, memory_gb: float):
    """Worker-side cell execution against the broadcast state."""
    if _WORKER_STATE is None:
        raise RuntimeError("worker pool was not initialized with a trace")
    trace, trace_dir, config, policy_kwargs = _WORKER_STATE
    return run_cell(
        trace, policy_name, memory_gb, trace_dir=trace_dir,
        config=config, policy_kwargs=policy_kwargs,
    )


def run_sweep_parallel(
    trace: Trace,
    memory_gbs: Sequence[float],
    policies: Iterable[str] = PAPER_POLICIES,
    max_workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    retries: int = 1,
    tracer: Optional[Tracer] = None,
    trace_dir: Optional[str] = None,
    config: Optional[RunConfig] = None,
    policy_kwargs: Optional[dict] = None,
    **config_fields,
) -> SweepResult:
    """Like :func:`repro.sim.sweep.run_sweep`, fanned out over processes.

    ``max_workers=None`` uses the interpreter default (CPU count);
    ``max_workers=0`` or ``1`` falls back to in-process execution,
    which is also the safe choice inside an already-parallel harness.

    Each failing cell is retried ``retries`` times; cells that still
    fail land in the returned :attr:`SweepResult.failed_cells` (as
    ``(policy, memory_gb, error)``) while every other point is kept —
    a partial grid instead of a lost one. Points are ordered exactly
    as :func:`run_sweep` orders them (policy-major, then memory), with
    failed cells skipped, so a clean run compares equal to the
    sequential sweep.

    Tracing: ``trace_dir`` works in every mode — it is broadcast as a
    path and each worker opens its own per-cell JSONL sink (see
    :func:`repro.sim.sweep.cell_trace_path`). A ``tracer`` *object* is
    only accepted on the in-process path (``max_workers <= 1``):
    tracer sinks hold open file handles and other process-local state,
    and shipping one through the pool initializer would make every
    worker interleave writes on a duplicated handle. Passing a tracer
    with multiprocess workers therefore raises :class:`ValueError`
    instead of silently corrupting the output.

    ``config`` / its fields as keywords (``fault_spec=…``,
    ``tenant_mode=…``, ... — see :func:`repro.sim.sweep.run_cell`) and
    ``policy_kwargs`` are plain picklable values broadcast once
    through the pool initializer like the trace and applied
    identically to every cell; each worker derives per-cell fault
    seeds locally, so fault-injected and tenant-aware parallel sweeps
    stay bit-identical to their sequential counterparts.
    """
    config = RunConfig.resolve(config, config_fields)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if tracer is not None and trace_dir is not None:
        raise ValueError("pass either tracer or trace_dir, not both")
    multiprocess = max_workers is None or max_workers > 1
    if tracer is not None and multiprocess:
        raise ValueError(
            "tracer objects hold process-local sinks (open file handles, "
            "in-memory buffers) and cannot be shared with sweep worker "
            "processes; pass trace_dir=<directory> for per-cell JSONL "
            "files, or max_workers=1 to trace in-process"
        )
    state: _Broadcast = (trace, trace_dir, config, policy_kwargs)
    cells: List[Tuple[str, float]] = [
        (policy, memory_gb)
        for policy in policies
        for memory_gb in memory_gbs
    ]
    result = SweepResult(trace_name=trace.name)
    total = len(cells)
    points_by_cell: Dict[int, object] = {}
    done = 0

    def settle(index: int, point) -> None:
        nonlocal done
        done += 1
        if point is not None:
            points_by_cell[index] = point
        if progress is not None:
            policy_name, memory_gb = cells[index]
            progress(done, total, policy_name, memory_gb)

    def retry(index: int, attempts: int, exc: Exception) -> bool:
        """The one retry rule: True while the cell has ``attempts <
        retries``; else it is recorded as failed and settled."""
        if attempts < retries:
            return True
        policy_name, memory_gb = cells[index]
        result.failed_cells.append(FailedCell(policy_name, memory_gb, repr(exc)))
        settle(index, None)
        return False

    in_process = max_workers is not None and max_workers <= 1
    if in_process:
        for index, (policy_name, memory_gb) in enumerate(cells):
            for attempts in itertools.count():
                try:
                    point = run_cell(
                        trace,
                        policy_name,
                        memory_gb,
                        tracer=tracer,
                        trace_dir=trace_dir,
                        config=config,
                        policy_kwargs=policy_kwargs,
                    )
                except Exception as exc:
                    if retry(index, attempts, exc):
                        continue
                else:
                    settle(index, point)
                break

    # Cells without a terminal outcome yet, with the retry attempts
    # each has already consumed. Surviving this map across pool
    # rebuilds is what makes retry budgets rebuild-proof: a pool crash
    # resubmits a cell with its old attempt count, while a genuine
    # cell failure increments it whichever pool generation it lands in.
    remaining: Dict[int, int] = (
        {} if in_process else {index: 0 for index in range(total)}
    )
    generations = 0
    while remaining and generations < _MAX_POOL_GENERATIONS:
        generations += 1
        broken = False
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=state,
        ) as pool:
            futures: Dict[object, Tuple[int, int]] = {}
            for index in sorted(remaining):
                policy_name, memory_gb = cells[index]
                futures[pool.submit(_run_cell, policy_name, memory_gb)] = (
                    index,
                    remaining[index],
                )
            pending = set(futures)
            while pending and not broken:
                finished, pending = wait(
                    pending, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index, attempts = futures.pop(future)
                    policy_name, memory_gb = cells[index]
                    try:
                        point = future.result()
                    except BrokenProcessPool:
                        # The pool is unusable; every sibling future
                        # fails the same way. Leave the unfinished
                        # cells in ``remaining`` (attempt counts
                        # untouched — a pool crash is not the cell's
                        # fault) and rebuild.
                        broken = True
                        break
                    except Exception as exc:
                        if retry(index, attempts, exc):
                            remaining[index] = attempts + 1
                            try:
                                again = pool.submit(
                                    _run_cell, policy_name, memory_gb
                                )
                            except RuntimeError:
                                # Pool already shutting down/broken;
                                # the rebuild will pick the cell up.
                                broken = True
                                break
                            futures[again] = (index, attempts + 1)
                            pending.add(again)
                            continue
                        del remaining[index]
                        continue
                    del remaining[index]
                    settle(index, point)

    # Cells still unfinished after the generation cap: something keeps
    # hard-killing workers. Quarantine each in its own solo pool so
    # the poison stays contained and every cell still gets a verdict.
    for index in sorted(remaining):
        policy_name, memory_gb = cells[index]
        try:
            with ProcessPoolExecutor(
                max_workers=1, initializer=_init_worker, initargs=state
            ) as solo:
                point = solo.submit(_run_cell, policy_name, memory_gb).result()
        except Exception as exc:
            result.failed_cells.append(
                FailedCell(policy_name, memory_gb, repr(exc))
            )
            point = None
        settle(index, point)
    remaining.clear()

    result.points = [
        points_by_cell[i] for i in range(total) if i in points_by_cell
    ]
    result.failed_cells.sort(key=lambda c: (c.policy, c.memory_gb))
    return result
