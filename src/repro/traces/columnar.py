"""Columnar (struct-of-arrays) trace representation.

A million-invocation object :class:`~repro.traces.model.Trace` spends
most of its footprint on per-invocation ``Invocation`` instances and
interned name strings — roughly 100+ bytes each. Replaying at the
ROADMAP's month-long scale wants the transpose: one float64 array of
arrival times plus one int32 array of function-table indices, ~12
bytes per invocation, iterated in cache-friendly chunks.

:class:`ColumnarTrace` is that transpose. It is a *representation*
change only: :meth:`ColumnarTrace.from_trace` /
:meth:`ColumnarTrace.to_trace` round-trip losslessly, replay order is
the object trace's canonical ``(time_s, function_name)`` order, and
the simulator produces byte-identical metrics from either form (the
differential suite in ``tests/test_columnar_differential.py`` holds
the two paths to equal fingerprints).

Static per-function data lives once in a :class:`FunctionTable`:
parallel arrays of memory/warm/cold columns plus the interned
:class:`~repro.traces.model.TraceFunction` objects the object-based
simulator hooks expect.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.traces.model import Invocation, Trace, TraceFunction

__all__ = ["FunctionTable", "ColumnarTrace", "DEFAULT_CHUNK_INVOCATIONS"]

#: Default replay-chunk granularity: big enough to amortize the
#: per-chunk ``tolist`` and dispatch overhead, small enough that a
#: chunk of times + ids stays around a megabyte.
DEFAULT_CHUNK_INVOCATIONS = 65_536


class FunctionTable:
    """Static function characteristics as parallel columns.

    Row *i* describes the function with id *i*; invocation arrays
    refer to functions by these ids. Names are unique, and the
    column order is the insertion order of the functions given to the
    constructor (deterministic, never hash order).
    """

    def __init__(self, functions: Iterable[TraceFunction]) -> None:
        objects: List[TraceFunction] = []
        index: Dict[str, int] = {}
        for func in functions:
            if func.name in index:
                raise ValueError(f"duplicate function name {func.name!r}")
            index[func.name] = len(objects)
            objects.append(func)
        self._objects: Tuple[TraceFunction, ...] = tuple(objects)
        self._index = index
        self._by_name: Mapping[str, TraceFunction] = MappingProxyType(
            {f.name: f for f in objects}
        )
        self.names: Tuple[str, ...] = tuple(f.name for f in objects)
        self.memory_mb = np.array(
            [f.memory_mb for f in objects], dtype=np.float64
        )
        self.warm_time_s = np.array(
            [f.warm_time_s for f in objects], dtype=np.float64
        )
        self.cold_time_s = np.array(
            [f.cold_time_s for f in objects], dtype=np.float64
        )
        self.tenant_id = np.array(
            [f.tenant_id for f in objects], dtype=np.int32
        )

    def __len__(self) -> int:
        return len(self._objects)

    def index_of(self, name: str) -> int:
        return self._index[name]

    def object_of(self, function_id: int) -> TraceFunction:
        return self._objects[function_id]

    def objects(self) -> Tuple[TraceFunction, ...]:
        """The interned :class:`TraceFunction` row objects, by id."""
        return self._objects

    def as_dict(self) -> Mapping[str, TraceFunction]:
        """Name-to-function mapping (the object ``Trace`` contract).
        Built once; every call returns the same read-only view."""
        return self._by_name

    def arrivals(
        self, chunks: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> Iterator[Tuple[float, TraceFunction]]:
        """``(time_s, function)`` per invocation of ``chunks``. One
        bulk ``tolist`` per chunk: the consumer sees plain floats and
        interned row objects, never per-invocation array indexing."""
        objects = self._objects
        for times, function_ids in chunks:
            for time_s, fid in zip(times.tolist(), function_ids.tolist()):
                yield time_s, objects[fid]

    @property
    def has_tenants(self) -> bool:
        """True when any row carries a real (non-zero) tenant id."""
        return bool(self.tenant_id.size) and bool(np.any(self.tenant_id != 0))

    def __repr__(self) -> str:
        return f"FunctionTable(functions={len(self._objects)})"


class ColumnarTrace:
    """A replayable workload in struct-of-arrays form.

    ``times_s`` (float64) and ``function_ids`` (int32, indices into
    ``functions``) are parallel arrays in replay order. Replay order
    is the canonical object-trace order — ascending ``(time_s,
    function_name)`` — which :meth:`from_trace` inherits and direct
    constructions must provide (times are validated; tie order is the
    caller's contract, exactly as ``Trace`` trusts ``sorted``).
    """

    def __init__(
        self,
        functions: FunctionTable,
        times_s: np.ndarray,
        function_ids: np.ndarray,
        name: str = "trace",
    ) -> None:
        times_s = np.ascontiguousarray(times_s, dtype=np.float64)
        function_ids = np.ascontiguousarray(function_ids, dtype=np.int32)
        if times_s.shape != function_ids.shape or times_s.ndim != 1:
            raise ValueError(
                f"times and function ids must be parallel 1-D arrays, got "
                f"shapes {times_s.shape} and {function_ids.shape}"
            )
        if times_s.size:
            # Written so that a NaN, false in every comparison, fails.
            if not (0.0 <= float(times_s[0]) and float(times_s[-1]) < np.inf):
                raise ValueError(
                    f"invocation times must be finite and >= 0, got "
                    f"{times_s[0]} .. {times_s[-1]}"
                )
            if not np.all(times_s[1:] >= times_s[:-1]):
                raise ValueError(
                    "invocation times must be non-decreasing (and not NaN)"
                )
            lo = int(function_ids.min())
            hi = int(function_ids.max())
            if lo < 0 or hi >= len(functions):
                raise ValueError(
                    f"function ids must be within [0, {len(functions)}), "
                    f"got range [{lo}, {hi}]"
                )
        self.name = name
        self.functions_table = functions
        self.times_s = times_s
        self.function_ids = function_ids

    # ------------------------------------------------------------------
    # Conversions (the differential-testing bridge)
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Transpose an object trace; replay order is preserved."""
        table = FunctionTable(trace.functions.values())
        invocations = trace.invocations
        times = np.fromiter(
            (inv.time_s for inv in invocations),
            dtype=np.float64,
            count=len(invocations),
        )
        ids = np.fromiter(
            (table.index_of(inv.function_name) for inv in invocations),
            dtype=np.int32,
            count=len(invocations),
        )
        return cls(table, times, ids, name=trace.name)

    def to_trace(self) -> Trace:
        """Materialize the object form (the differential oracle)."""
        names = self.functions_table.names
        return Trace(
            functions=self.functions_table.objects(),
            invocations=[
                Invocation(t, names[i])
                for t, i in zip(
                    self.times_s.tolist(), self.function_ids.tolist()
                )
            ],
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Replay access
    # ------------------------------------------------------------------

    def iter_chunks(
        self, chunk_invocations: int = DEFAULT_CHUNK_INVOCATIONS
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(times, function_ids)`` array views in replay order."""
        if chunk_invocations < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_invocations}"
            )
        total = self.times_s.size
        for start in range(0, total, chunk_invocations):
            stop = min(start + chunk_invocations, total)
            yield self.times_s[start:stop], self.function_ids[start:stop]

    # ------------------------------------------------------------------
    # Object-Trace-compatible surface (what the simulator reads)
    # ------------------------------------------------------------------

    @property
    def functions(self) -> Mapping[str, TraceFunction]:
        return self.functions_table.as_dict()

    def arrivals(self) -> Iterator[Tuple[float, TraceFunction]]:
        """``(time_s, function)`` per invocation in replay order."""
        return self.functions_table.arrivals(self.iter_chunks())

    @property
    def duration_s(self) -> float:
        if not self.times_s.size:
            return 0.0
        return float(self.times_s[-1]) - float(self.times_s[0])

    @property
    def last_arrival_s(self) -> float:
        """Absolute time of the last invocation (0.0 when empty)."""
        return float(self.times_s[-1]) if self.times_s.size else 0.0

    @property
    def num_functions(self) -> int:
        return len(self.functions_table)

    @property
    def has_tenants(self) -> bool:
        return self.functions_table.has_tenants

    def tenant_ids(self) -> Tuple[int, ...]:
        """Sorted distinct tenant ids (the object ``Trace`` contract)."""
        return tuple(
            int(t) for t in np.unique(self.functions_table.tenant_id)
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the invocation columns (~12 per invocation)."""
        return int(self.times_s.nbytes + self.function_ids.nbytes)

    def per_function_counts(self) -> Dict[str, int]:
        counts = np.bincount(
            self.function_ids, minlength=len(self.functions_table)
        )
        return {
            name: int(count)
            for name, count in zip(self.functions_table.names, counts.tolist())
        }

    def __len__(self) -> int:
        return int(self.times_s.size)

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(name={self.name!r}, "
            f"functions={len(self.functions_table)}, "
            f"invocations={self.times_s.size}, "
            f"nbytes={self.nbytes})"
        )
