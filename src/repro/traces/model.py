"""Workload trace data model.

A *trace* is what the keep-alive simulator replays: a time-ordered
sequence of invocations, each referring to a function with known
memory footprint, warm running time, and cold-start overhead. This
mirrors the serialized format of the original FaasCache simulator
(``LambdaData`` plus timestamped invocation lists) while staying
independent of any particular source (synthetic Azure-like traces,
FunctionBench models, or hand-built litmus workloads).

All times are in **seconds**; memory is in **megabytes**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Sequence, Tuple

__all__ = ["TraceFunction", "Invocation", "Trace"]


@dataclass(frozen=True)
class TraceFunction:
    """Static characteristics of one serverless function.

    Equivalent to the original simulator's ``LambdaData``: a name, the
    memory a container for it occupies, and its warm and cold running
    times. ``cold_time`` includes the initialization overhead, so the
    cold-start *penalty* is ``cold_time - warm_time``.

    ``tenant_id`` identifies the function's owner in multi-tenant
    workloads (docs/multi-tenancy.md). Tenant ``0`` means *untenanted*
    — the pre-tenancy single-owner world — and is the default, so every
    existing trace constructor, serialized file, and columnar layout
    keeps working unchanged. Real tenants are positive integers.
    """

    name: str
    memory_mb: float
    warm_time_s: float
    cold_time_s: float
    tenant_id: int = 0

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError(
                f"function {self.name!r}: memory must be positive, "
                f"got {self.memory_mb}"
            )
        if self.tenant_id < 0:
            raise ValueError(
                f"function {self.name!r}: tenant_id must be >= 0, "
                f"got {self.tenant_id}"
            )
        if self.warm_time_s < 0 or self.cold_time_s < 0:
            raise ValueError(
                f"function {self.name!r}: running times must be non-negative"
            )
        if self.cold_time_s < self.warm_time_s:
            raise ValueError(
                f"function {self.name!r}: cold time ({self.cold_time_s}) "
                f"must be >= warm time ({self.warm_time_s})"
            )

    @property
    def init_time_s(self) -> float:
        """Initialization overhead: the cost a cold start pays."""
        return self.cold_time_s - self.warm_time_s


@dataclass(frozen=True, order=True)
class Invocation:
    """One function invocation request at an absolute time."""

    time_s: float
    function_name: str

    def __post_init__(self) -> None:
        if not 0 <= self.time_s < inf:  # a NaN fails every comparison
            raise ValueError(
                f"invocation time must be finite and >= 0, got {self.time_s}"
            )


class Trace:
    """A replayable workload: functions plus time-ordered invocations.

    Invocations are sorted by ``(time_s, function_name)`` at
    construction so replay order is deterministic regardless of how the
    trace was assembled.
    """

    def __init__(
        self,
        functions: Iterable[TraceFunction],
        invocations: Iterable[Invocation],
        name: str = "trace",
    ) -> None:
        self.name = name
        self._functions: Dict[str, TraceFunction] = {}
        for func in functions:
            if func.name in self._functions:
                raise ValueError(f"duplicate function name {func.name!r}")
            self._functions[func.name] = func
        # ``sorted(invocations)`` in two stable passes whose keys compare
        # in C, not through the dataclass's Python-level ``__lt__``.
        ordered = sorted(invocations, key=attrgetter("function_name"))
        ordered.sort(key=attrgetter("time_s"))
        self._invocations: Tuple[Invocation, ...] = tuple(ordered)
        missing = {
            inv.function_name
            for inv in self._invocations
            if inv.function_name not in self._functions
        }
        if missing:
            raise ValueError(
                f"invocations reference unknown functions: {sorted(missing)[:5]}"
            )

    @property
    def functions(self) -> Dict[str, TraceFunction]:
        """Mapping from function name to its static characteristics: a
        fresh copy per access, so hoist it out of a loop (or use
        :meth:`function` / :meth:`arrivals`)."""
        return dict(self._functions)

    @property
    def invocations(self) -> Sequence[Invocation]:
        return self._invocations

    def function(self, name: str) -> TraceFunction:
        return self._functions[name]

    def __len__(self) -> int:
        return len(self._invocations)

    def __iter__(self) -> Iterator[Invocation]:
        return iter(self._invocations)

    def arrivals(self) -> Iterator[Tuple[float, TraceFunction]]:
        """``(time_s, function)`` per invocation in replay order — the
        iteration contract every trace form gives the simulator."""
        functions = self._functions
        for invocation in self._invocations:
            yield invocation.time_s, functions[invocation.function_name]

    @property
    def duration_s(self) -> float:
        """Time span from the first to the last invocation."""
        if not self._invocations:
            return 0.0
        return self._invocations[-1].time_s - self._invocations[0].time_s

    @property
    def last_arrival_s(self) -> float:
        """Absolute time of the last invocation (0.0 when empty): the
        horizon schedules generated on absolute time must cover."""
        return self._invocations[-1].time_s if self._invocations else 0.0

    @property
    def num_functions(self) -> int:
        return len(self._functions)

    def arrival_rate(self) -> float:
        """Average invocations per second over the trace duration."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return len(self._invocations) / duration

    def mean_interarrival_s(self) -> float:
        """Mean inter-arrival time across *all* invocations (Table 2)."""
        if len(self._invocations) < 2:
            return 0.0
        return self.duration_s / (len(self._invocations) - 1)

    def per_function_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {name: 0 for name in self._functions}
        for inv in self._invocations:
            counts[inv.function_name] += 1
        return counts

    def tenant_ids(self) -> Tuple[int, ...]:
        """Sorted distinct tenant ids appearing in this trace."""
        return tuple(sorted({f.tenant_id for f in self._functions.values()}))

    @property
    def has_tenants(self) -> bool:
        """True when any function carries a real (non-zero) tenant id.

        The simulator uses this once-per-run flag to decide whether to
        record per-tenant metrics and attach ``tenant`` event fields;
        tenant-less traces take exactly the legacy code path, keeping
        their event streams and fingerprints byte-identical.
        """
        return any(f.tenant_id != 0 for f in self._functions.values())

    def restrict(self, function_names: Iterable[str], name: str | None = None) -> "Trace":
        """A sub-trace containing only the given functions' invocations."""
        keep = set(function_names)
        unknown = keep - set(self._functions)
        if unknown:
            raise ValueError(f"unknown functions: {sorted(unknown)[:5]}")
        return Trace(
            functions=[self._functions[n] for n in sorted(keep)],
            invocations=[
                inv for inv in self._invocations if inv.function_name in keep
            ],
            name=name or f"{self.name}-restricted",
        )

    def shifted(self, offset_s: float, name: str | None = None) -> "Trace":
        """The same trace with every invocation moved by ``offset_s``."""
        return Trace(
            functions=self._functions.values(),
            invocations=[
                Invocation(inv.time_s + offset_s, inv.function_name)
                for inv in self._invocations
            ],
            name=name or self.name,
        )

    def truncated(self, end_s: float, name: str | None = None) -> "Trace":
        """Only invocations at or before ``end_s``."""
        return Trace(
            functions=self._functions.values(),
            invocations=[inv for inv in self._invocations if inv.time_s <= end_s],
            name=name or f"{self.name}-truncated",
        )

    def merged_with(self, other: "Trace", name: str | None = None) -> "Trace":
        """Union of two traces; shared function names must agree exactly."""
        for fname, func in other._functions.items():
            if fname in self._functions and self._functions[fname] != func:
                raise ValueError(
                    f"function {fname!r} differs between merged traces"
                )
        functions = dict(self._functions)
        functions.update(other._functions)
        return Trace(
            functions=functions.values(),
            invocations=self._invocations + other._invocations,
            name=name or f"{self.name}+{other.name}",
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, functions={self.num_functions}, "
            f"invocations={len(self._invocations)})"
        )
