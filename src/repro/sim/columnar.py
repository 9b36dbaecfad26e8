"""The vectorized TTL kernel: an exact closed-form replay.

Every replay normally runs the per-arrival loop of
:meth:`~repro.sim.scheduler.KeepAliveSimulator.run`, which pays Python
dispatch for every arrival. For one configuration that loop can be
replaced by vectorized NumPy recurrences producing **byte-identical**
:class:`SimulationMetrics`: ``simulate(engine="columnar")`` asks
:func:`try_ttl_kernel` first and falls back to the loop when it
declines. The loop stays the reference the kernel is differentially
tested against (``tests/test_columnar_differential.py``); which of the
two ran is reported as ``SimulationResult.path``.

The kernel applies only when the replay is provably equivalent to the
simulator: pure :class:`TTLPolicy`, no tracer / faults / warmup /
timeline / reserved concurrency / tenants, every function's arrival
gap covers its cold time (so a function never holds two containers),
and the arriving functions' total footprint fits in capacity (so
pressure eviction never fires). Under those preconditions each
function's container deadline follows the recurrence ``d_i = (t_i +
dur_i) + ttl`` with ``cold_i ⇔ d_{i-1} <= t_i``, which resolves chunk
by chunk with three vectorized classifications (certainly-cold,
certainly-warm, and an alternating ambiguous band) — see
``docs/performance-log.md`` for the derivation. Metric sums use
``np.add.accumulate``, whose strict left-to-right evaluation
reproduces the simulator's sequential ``+=`` bit for bit.

The per-trace preconditions are re-validated on every chunk; a
violation discovered mid-stream discards the kernel state and the
caller replays from the start through the loop (chunk sources are
restartable by contract), so the fast path can never silently diverge.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.checks.sanitize import sanitize_enabled
from repro.core.clock import wall_clock_s
from repro.core.policies.base import KeepAlivePolicy
from repro.core.policies.ttl import TTLPolicy
from repro.obs.tracer import Tracer
from repro.sim.config import RunConfig
from repro.sim.metrics import FunctionOutcome, SimulationMetrics
from repro.sim.scheduler import SimulationResult
from repro.traces.columnar import (
    DEFAULT_CHUNK_INVOCATIONS,
    ColumnarTrace,
    FunctionTable,
)
from repro.traces.model import Trace
from repro.traces.streaming import StreamingChurnTrace

__all__ = ["ttl_kernel_eligible", "try_ttl_kernel", "run_ttl_kernel"]

#: Trace forms the kernel reads: materialized columnar arrays or a
#: restartable chunk stream (both expose ``name`` and
#: ``functions_table``).
ColumnarSource = Union[ColumnarTrace, StreamingChurnTrace]


def _chunks_of(
    trace: ColumnarSource, chunk_invocations: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    if isinstance(trace, ColumnarTrace):
        return trace.iter_chunks(chunk_invocations)
    return trace.chunks()


def ttl_kernel_eligible(
    policy: KeepAlivePolicy, config: RunConfig, tracer: Optional[Tracer]
) -> bool:
    """Static preconditions for the vectorized TTL kernel.

    Exact type match (a subclass may override any hook), default
    simulator configuration only, and never under the runtime
    sanitizer — the arrival loop is what the sanitizer's per-event
    invariants instrument, so sanitized runs take it unconditionally
    (maximal checking beats maximal speed there). Tenancy disqualifies
    the kernel twice over: non-shared pool modes change victim
    selection, and even a shared-mode replay of a tenant-tagged trace
    must fall back so the per-tenant metrics the simulator records are
    produced (:func:`try_ttl_kernel` additionally checks the trace's
    tenant column). Per-trace preconditions (arrival gaps, capacity
    headroom) are validated chunk by chunk inside the kernel itself.
    """
    return (
        type(policy) is TTLPolicy
        and tracer is None
        and config.fault_spec is None
        and not config.reserved_concurrency
        and not config.track_memory_timeline
        and config.warmup_s <= 0.0
        and config.tenant_mode == "shared"
        and not sanitize_enabled()
    )


def try_ttl_kernel(
    trace: Union[Trace, ColumnarSource],
    policy: KeepAlivePolicy,
    memory_mb: float,
    config: RunConfig,
    tracer: Optional[Tracer],
) -> Optional[SimulationResult]:
    """The kernel's answer for this run, or ``None`` when it is not
    eligible (statically, or by a per-trace precondition) and the
    arrival loop must run instead. An object :class:`Trace` is
    transposed first — only once the static checks have passed."""
    if not ttl_kernel_eligible(policy, config, tracer):
        return None
    if isinstance(trace, Trace):
        trace = ColumnarTrace.from_trace(trace)
    if trace.functions_table.has_tenants:
        return None
    return run_ttl_kernel(
        trace, policy.ttl_s, float(memory_mb), policy.name
    )


# ----------------------------------------------------------------------
# Vectorized TTL kernel
# ----------------------------------------------------------------------
#
# Equivalence argument (with gaps >= cold time and capacity never
# binding, each function owns at most one container and pressure
# eviction never fires):
#
# * The object simulator schedules a container's expiry at
#   ``(start + duration) + ttl`` and pops deadlines ``<= now`` before
#   the warm lookup, so arrival *i* of a function is cold exactly when
#   its previous arrival's deadline ``d_{i-1} <= t_i``.
# * ``d_{i-1}`` is one of two per-arrival candidates — warm or cold
#   duration — so each arrival classifies as *certainly cold* (even
#   the cold-duration deadline has passed), *certainly warm* (even the
#   warm-duration deadline is alive), or *ambiguous*, where exactly
#   one step of history decides: ``cold_i = not cold_{i-1}`` (a cold
#   predecessor's longer deadline survives, a warm one's has lapsed).
#   Ambiguity therefore *alternates*, and a run of ambiguous arrivals
#   after a certain one resolves by parity — a gather plus an XOR.
# * Expirations: every non-final container of a function expired
#   before the cold start that replaced it, and the final one expires
#   iff its deadline precedes the global last arrival (the expiry
#   phase runs at every arrival under TTL), giving
#   ``(cold_starts - functions_arrived) + finals_lapsed``.
# * Metric sums replay the oracle's exact left-to-right float
#   accumulation via ``np.add.accumulate`` with a scalar carry across
#   chunks (covered by a dedicated exactness test).


class _TTLKernelState:
    """Per-function recurrence state carried across chunks."""

    def __init__(self, table: FunctionTable) -> None:
        count = len(table)
        self.d_prev = np.full(count, -np.inf)  # deadline after last use
        self.t_prev = np.full(count, -np.inf)  # last arrival time
        self.arrived = np.zeros(count, dtype=bool)
        self.cold_counts = np.zeros(count, dtype=np.int64)
        self.total_counts = np.zeros(count, dtype=np.int64)
        self.appearance: List[int] = []  # fids in first-arrival order
        self.arrived_memory_mb = 0.0
        self.ideal_sum = 0.0
        self.actual_sum = 0.0
        self.invocations = 0
        self.t_last = 0.0


def run_ttl_kernel(
    trace: ColumnarSource,
    ttl_s: float,
    capacity_mb: float,
    policy_name: str,
    chunk_invocations: int = DEFAULT_CHUNK_INVOCATIONS,
) -> Optional[SimulationResult]:
    """Closed-form TTL replay; None when a per-trace precondition
    fails. The result does not depend on ``chunk_invocations`` (which
    only a materialized :class:`ColumnarTrace` honours; a stream
    brings its own chunking)."""
    started = wall_clock_s()
    table = trace.functions_table
    state = _TTLKernelState(table)
    for times, fids in _chunks_of(trace, chunk_invocations):
        if not _ttl_kernel_chunk(state, table, times, fids, ttl_s, capacity_mb):
            return None
    metrics = _ttl_kernel_metrics(state, table)
    metrics.wall_time_s = wall_clock_s() - started
    return SimulationResult(
        trace_name=trace.name,
        policy_name=policy_name,
        memory_mb=capacity_mb,
        metrics=metrics,
        path="vectorized-ttl",
    )


def _ttl_kernel_chunk(
    state: _TTLKernelState,
    table: FunctionTable,
    times: np.ndarray,
    fids: np.ndarray,
    ttl_s: float,
    capacity_mb: float,
) -> bool:
    """Process one chunk; False on a precondition violation."""
    size = times.size
    if size == 0:
        return True
    # Group by function with arrival order preserved inside groups.
    # A stable sort of 16-bit keys is a radix sort (of int32, a merge
    # sort ten times slower): same permutation wherever the ids fit.
    keys = fids.astype(np.uint16) if len(table) <= 65_536 else fids
    order = np.argsort(keys, kind="stable")
    fs = fids[order]
    ts = times[order]
    warm_t = table.warm_time_s[fs]
    cold_t = table.cold_time_s[fs]
    seg_start = np.empty(size, dtype=bool)
    seg_start[0] = True
    np.not_equal(fs[1:], fs[:-1], out=seg_start[1:])

    # Precondition: every same-function gap covers the cold time, so
    # the previous invocation (warm or cold) has always finished and
    # a function never needs a second concurrent container.
    gaps = np.empty(size)
    gaps[0] = np.inf
    np.subtract(ts[1:], ts[:-1], out=gaps[1:])
    carried_t_prev = state.t_prev[fs]
    gaps = np.where(seg_start, ts - carried_t_prev, gaps)
    if bool(np.any(gaps < cold_t)):
        return False

    # Precondition: the arriving working set fits outright, so the
    # pressure path (victim selection, drops) can never trigger.
    first_seen = seg_start & ~state.arrived[fs]
    if bool(np.any(first_seen)):
        new_fids = fs[first_seen]
        state.arrived_memory_mb += float(
            np.add.reduce(table.memory_mb[new_fids])
        )
        if state.arrived_memory_mb > capacity_mb:
            return False
        # Record first arrivals (one segment head per function) in
        # *global* chunk order — the order the oracle's per-function
        # dict acquires its keys.
        state.appearance.extend(fids[np.sort(order[first_seen])].tolist())
        state.arrived[new_fids] = True

    # Deadline candidates after each arrival: the simulator schedules
    # (start + duration) + ttl with exactly this association order.
    d_warm = (ts + warm_t) + ttl_s
    d_cold = (ts + cold_t) + ttl_s

    # Classify arrivals. Segment heads compare against the carried
    # (exact) previous deadline; interior arrivals against their
    # predecessor's two candidates.
    prev_dw = np.empty(size)
    prev_dc = np.empty(size)
    prev_dw[0] = prev_dc[0] = np.inf  # head: decided by carried state
    prev_dw[1:] = d_warm[:-1]
    prev_dc[1:] = d_cold[:-1]
    certainly_cold = prev_dc <= ts
    certainly_warm = prev_dw > ts
    head_cold = state.d_prev[fs] <= ts
    certain = seg_start | certainly_cold | certainly_warm
    certain_value = np.where(seg_start, head_cold, certainly_cold)
    # Ambiguous arrivals alternate (cold_i = not cold_{i-1}); resolve
    # each against the nearest earlier certain arrival by parity.
    positions = np.arange(size)
    anchor = np.where(certain, positions, -1)
    np.maximum.accumulate(anchor, out=anchor)
    cold_sorted = certain_value[anchor] ^ (((positions - anchor) & 1) == 1)

    # Commit per-function recurrence state at segment tails.
    seg_end = np.empty(size, dtype=bool)
    seg_end[-1] = True
    seg_end[:-1] = seg_start[1:]
    d_final = np.where(cold_sorted, d_cold, d_warm)
    tail_fids = fs[seg_end]
    state.d_prev[tail_fids] = d_final[seg_end]
    state.t_prev[tail_fids] = ts[seg_end]

    # Counters and the oracle's exact sequential metric sums, in
    # global arrival order.
    function_count = len(table)
    state.cold_counts += np.bincount(
        fs[cold_sorted], minlength=function_count
    )
    state.total_counts += np.bincount(fs, minlength=function_count)
    cold_in_order = np.empty(size, dtype=bool)
    cold_in_order[order] = cold_sorted
    ideal = np.empty(size + 1)
    ideal[0] = state.ideal_sum
    ideal[1:] = table.warm_time_s[fids]
    state.ideal_sum = float(np.add.accumulate(ideal)[-1])
    actual = np.empty(size + 1)
    actual[0] = state.actual_sum
    actual[1:] = np.where(
        cold_in_order, table.cold_time_s[fids], table.warm_time_s[fids]
    )
    state.actual_sum = float(np.add.accumulate(actual)[-1])
    state.invocations += int(size)
    state.t_last = float(times[-1])
    return True


def _ttl_kernel_metrics(
    state: _TTLKernelState, table: FunctionTable
) -> SimulationMetrics:
    metrics = SimulationMetrics()
    if not state.invocations:
        return metrics
    total_cold = int(np.add.reduce(state.cold_counts))
    metrics.cold_starts = total_cold
    metrics.warm_starts = state.invocations - total_cold
    metrics.ideal_exec_time_s = state.ideal_sum
    metrics.actual_exec_time_s = state.actual_sum
    arrived_fids = np.array(state.appearance, dtype=np.int64)
    finals_lapsed = int(
        np.count_nonzero(state.d_prev[arrived_fids] <= state.t_last)
    )
    metrics.expirations = (
        total_cold - len(state.appearance) + finals_lapsed
    )
    names = table.names
    cold_counts = state.cold_counts
    total_counts = state.total_counts
    for fid in state.appearance:
        cold = int(cold_counts[fid])
        metrics.per_function[names[fid]] = FunctionOutcome(
            warm=int(total_counts[fid]) - cold, cold=cold
        )
    return metrics
