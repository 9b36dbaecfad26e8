"""The paper's Azure-trace preprocessing pipeline.

Section 7, "Adapting the Azure Functions Trace", lists the exact rules
used to turn the raw dataset into a replayable workload; this module
implements each of them:

1. Use the first day's data; **drop functions with fewer than two
   invocations** (never-reused functions tell keep-alive policies
   nothing).
2. The trace provides memory at the *application* level, so **split
   the application's memory allocation evenly** among its functions.
3. Invocations come in minute-wide buckets. A minute with one
   invocation injects it **at the beginning of the minute**; a minute
   with several spaces them **equally throughout the minute**.
4. The **cold-start overhead is estimated as maximum minus average
   runtime**; the average runtime is the warm running time, so the
   cold running time equals the maximum runtime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.domains import int_at_least
from repro.traces.azure import AzureDataset, AzureFunctionRecord
from repro.traces.model import Invocation, Trace, TraceFunction

__all__ = [
    "minute_bucket_times",
    "trace_function_from_record",
    "dataset_to_trace",
]

_MINUTE_S = 60.0
_MS_PER_S = 1000.0


def minute_bucket_times(minute_index: int, count: int) -> List[float]:
    """Injection times (seconds) for ``count`` invocations in one minute.

    One invocation lands at the beginning of the minute; several are
    spaced equally throughout it (Section 7).

    >>> minute_bucket_times(2, 1)
    [120.0]
    >>> minute_bucket_times(0, 3)
    [0.0, 20.0, 40.0]
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    start = minute_index * _MINUTE_S
    if count == 0:
        return []
    if count == 1:
        return [start]
    spacing = _MINUTE_S / count
    return [start + i * spacing for i in range(count)]


def trace_function_from_record(
    record: AzureFunctionRecord,
    functions_in_app: int,
    app_memory_mb: float,
) -> TraceFunction:
    """Apply the memory-split and cold-overhead rules to one function."""
    int_at_least(1).check("functions_in_app", functions_in_app)
    memory_mb = max(app_memory_mb / functions_in_app, 1.0)
    warm_time_s = record.avg_duration_ms / _MS_PER_S
    cold_time_s = record.max_duration_ms / _MS_PER_S
    return TraceFunction(
        name=record.function_id,
        memory_mb=memory_mb,
        warm_time_s=warm_time_s,
        cold_time_s=cold_time_s,
    )


def dataset_to_trace(
    dataset: AzureDataset,
    function_ids: Optional[Iterable[str]] = None,
    name: str = "azure",
    min_invocations: int = 2,
) -> Trace:
    """Build a replayable trace from (a subset of) an Azure dataset.

    ``function_ids`` restricts the trace to a sample (as the paper's
    RARE / REPRESENTATIVE / RANDOM workloads do); by default every
    function with at least ``min_invocations`` invocations is included.
    """
    if function_ids is None:
        selected = list(dataset.functions)
    else:
        selected = list(function_ids)
        unknown = [fid for fid in selected if fid not in dataset.functions]
        if unknown:
            raise ValueError(f"unknown function ids: {unknown[:5]}")

    trace_functions: List[TraceFunction] = []
    invocations: List[Invocation] = []
    for fid in selected:
        record = dataset.functions[fid]
        if record.total_invocations < min_invocations:
            continue
        app = dataset.applications[record.app_id]
        trace_functions.append(
            trace_function_from_record(record, len(app.function_ids), app.memory_mb)
        )
        for minute_index, count in enumerate(record.minute_counts):
            for t in minute_bucket_times(minute_index, count):
                invocations.append(Invocation(t, fid))
    return Trace(trace_functions, invocations, name=name)
