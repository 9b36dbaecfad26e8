"""Workload trace data model.

A *trace* is what the keep-alive simulator replays: a time-ordered
sequence of invocations, each referring to a function with known
memory footprint, warm running time, and cold-start overhead. This
mirrors the serialized format of the original FaasCache simulator
(``LambdaData`` plus timestamped invocation lists) while staying
independent of any particular source (synthetic Azure-like traces,
FunctionBench models, or hand-built litmus workloads).

A :class:`Trace` holds its arrivals as two columns, decoded once:
arrival times and function ids (stdlib ``array``, ~12 bytes per
invocation), beside a :class:`FunctionTable` registry. Invocation
objects are built only for the callers that ask for them; the replay
kernels wrap the columns without a copy.

All times are in **seconds**; memory is in **megabytes**.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from math import inf, isnan
from operator import add, attrgetter, eq, le
from types import MappingProxyType
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.domains import check_fields, int_at_least, knob, nonneg, positive

__all__ = ["TraceFunction", "Invocation", "FunctionTable", "Trace", "DEFAULT_CHUNK_INVOCATIONS"]

#: Arrivals per chunk of :meth:`Trace.iter_chunks`, the TTL kernel's
#: unit of work: its temporaries stay a few hundred kilobytes
#: (docs/performance-log.md has the chunk-size and peak table).
DEFAULT_CHUNK_INVOCATIONS = 4096

_tuple_new = tuple.__new__
_TIME = attrgetter("time_s")
_NAME = attrgetter("function_name")
_FUNCTION_NAME = attrgetter("name")


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
    memory_mb: float = knob(positive)
    warm_time_s: float = knob(nonneg)
    cold_time_s: float = knob(nonneg)
    tenant_id: int = knob(int_at_least(0), 0)

    def __post_init__(self) -> None:
        check_fields(self, f"function {self.name!r}: ")
        if self.cold_time_s < self.warm_time_s:
            raise ValueError(
                f"function {self.name!r}: cold time ({self.cold_time_s}) "
                f"must be >= warm time ({self.warm_time_s})"
            )

    @property
    def init_time_s(self) -> float:
        """Initialization overhead: the cost a cold start pays."""
        return self.cold_time_s - self.warm_time_s


class _InvocationFields(NamedTuple):
    time_s: float
    function_name: str


class Invocation(_InvocationFields):
    """One function invocation request at an absolute time.

    The tuple ``(time_s, function_name)`` with a checked time: it
    orders, hashes and compares equal as that plain tuple does, and its
    fields are C tuple getters.
    """

    __slots__ = ()

    def __new__(cls, time_s: float, function_name: str) -> "Invocation":
        if not 0 <= time_s < inf:  # a NaN fails every comparison
            raise ValueError(f"invocation time must be finite and >= 0, got {time_s}")
        return _tuple_new(cls, (time_s, function_name))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "Invocation":
        # ``_replace`` builds through here: keep the check on that path.
        return cls(*iterable)


class FunctionTable:
    """The function registry: :class:`TraceFunction` rows in id order.

    A trace's function ids index these rows. Names are unique, and the
    id order is the order the functions were given in (deterministic,
    never hash order).
    """

    def __init__(self, functions: Iterable[TraceFunction]) -> None:
        objects: Tuple[TraceFunction, ...] = tuple(functions)
        names: Tuple[str, ...] = tuple(map(_FUNCTION_NAME, objects))
        index: Dict[str, int] = dict(zip(names, count()))
        if len(index) != len(names):
            duplicate = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"duplicate function name {duplicate!r}")
        self._objects = objects
        self._index = index
        #: The id of a function name (``KeyError`` for an unknown one):
        #: the dict's own lookup, so mapping names over it costs no frame.
        self.index_of: Callable[[str], int] = index.__getitem__
        self._by_name: Mapping[str, TraceFunction] = MappingProxyType(dict(zip(names, objects)))
        self.names = names

    def __reduce__(self):
        return FunctionTable, (self._objects,)

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> Tuple[TraceFunction, ...]:
        """The interned :class:`TraceFunction` row objects, by id."""
        return self._objects

    def as_dict(self) -> Mapping[str, TraceFunction]:
        """Name-to-function mapping. Built once; every call returns the
        same read-only view."""
        return self._by_name

    def ids_of(self, names: Sequence[str]) -> "array[int]":
        """The id column of ``names``; ValueError naming unknown ones."""
        try:
            return array("i", list(map(self.index_of, names)))
        except KeyError:
            missing = sorted(set(names).difference(self._index), key=str)
            raise ValueError(
                f"invocations reference unknown functions: {missing[:5]}"
            ) from None

    @property
    def has_tenants(self) -> bool:
        """True when any row carries a real (non-zero) tenant id."""
        return any(f.tenant_id != 0 for f in self._objects)

    def __repr__(self) -> str:
        return f"FunctionTable(functions={len(self._objects)})"


def _check_times(times: "array[float]") -> None:
    """ValueError naming the first time that is not finite and >= 0."""
    if any(map(isnan, times)) or min(times) < 0.0 or max(times) == inf:
        index, time_s = next(
            (i, t) for i, t in enumerate(times) if not 0.0 <= t < inf
        )
        raise ValueError(
            f"invocation times must be finite and >= 0: invocation {index} "
            f"is at {time_s}"
        )


class Trace:
    """A replayable workload: functions plus time-ordered invocations.

    The invocations are two parallel columns — arrival times
    (``array('d')``) and function ids (``array('i')``, rows of
    :attr:`functions_table`) — kept in ascending ``(time_s,
    function_name)`` order whatever order they came in, so replay order
    is deterministic however the trace was assembled. Build one from
    :class:`Invocation` objects, or with :meth:`from_columns` from no
    objects at all.
    """

    def __init__(
        self,
        functions: Iterable[TraceFunction],
        invocations: Iterable[Invocation],
        name: str = "trace",
    ) -> None:
        table = FunctionTable(functions)
        # Already in time order, the stable sort is a single pass. Each
        # Invocation checked its own time, so the sorted column needs no
        # second look: only its runs of equal times go in name order.
        ordered = sorted(invocations, key=_TIME)
        self._keep(
            table,
            array("d", list(map(_TIME, ordered))),
            table.ids_of(list(map(_NAME, ordered))),
            name,
        )

    @classmethod
    def from_columns(
        cls,
        functions: "FunctionTable | Iterable[TraceFunction]",
        times_s: Iterable[float],
        function_ids: Iterable[int],
        name: str = "trace",
    ) -> "Trace":
        """A trace from its columns, in any order: arrival times, and
        ids into ``functions`` (a :class:`FunctionTable`, or the
        functions in id order)."""
        if not isinstance(functions, FunctionTable):
            functions = FunctionTable(functions)
        times, ids = array("d", times_s), array("i", function_ids)
        if len(times) != len(ids):
            raise ValueError(
                f"times and function ids must be parallel columns, got "
                f"lengths {len(times)} and {len(ids)}"
            )
        if ids and not (0 <= min(ids) and max(ids) < len(functions)):
            raise ValueError(
                f"function ids must be within [0, {len(functions)}), got "
                f"range [{min(ids)}, {max(ids)}]"
            )
        trace = cls.__new__(cls)
        trace._adopt(functions, times, ids, name)
        return trace

    def _adopt(
        self, table: FunctionTable, times: "array[float]", ids: "array[int]", name: str
    ) -> None:
        """Keep the columns in canonical order. One linear pass checks
        the times; only when it fails are they sorted (stably). Then
        :meth:`_keep` puts each run of equal times in name order."""
        if not all(map(le, times, islice(times, 1, None))):  # a NaN fails too
            _check_times(times)
            order = sorted(range(len(times)), key=times.__getitem__)
            times = array("d", map(times.__getitem__, order))
            ids = array("i", map(ids.__getitem__, order))
        elif times and not (0.0 <= times[0] and times[-1] < inf):
            _check_times(times)
        self._keep(table, times, ids, name)

    def _keep(
        self, table: FunctionTable, times: "array[float]", ids: "array[int]", name: str
    ) -> None:
        """Keep checked, time-sorted columns, each run of equal times
        put in name order."""
        runs: List[List[int]] = []  # [first, last] of each run of equal times
        for i in compress(count(), map(eq, times, islice(times, 1, None))):
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        by_name = table.names.__getitem__
        for first, last in runs:
            ids[first:last + 1] = array("i", sorted(ids[first:last + 1], key=by_name))
        self.name = name
        self.functions_table = table
        self._times = times
        self._ids = ids
        self._invocations: Optional[Tuple[Invocation, ...]] = None

    def __getstate__(self) -> Dict[str, object]:
        # A pickle carries the columns, not the objects built from them.
        return {**self.__dict__, "_invocations": None}

    @property
    def functions(self) -> Dict[str, TraceFunction]:
        """Mapping from function name to its static characteristics: a
        fresh copy per access, so hoist it out of a loop (or use
        :meth:`function` / :meth:`arrivals`)."""
        return dict(self.functions_table.as_dict())

    @property
    def invocations(self) -> Tuple[Invocation, ...]:
        """The invocations as objects, in replay order: built on the
        first access and kept (iterating the trace builds them without
        keeping them)."""
        if self._invocations is None:
            self._invocations = tuple(self)
        return self._invocations

    @property
    def times_s(self) -> memoryview:
        """Arrival times in replay order (float64, read-only)."""
        return memoryview(self._times).toreadonly()

    @property
    def function_ids(self) -> memoryview:
        """Each arrival's row of :attr:`functions_table` (int32,
        read-only)."""
        return memoryview(self._ids).toreadonly()

    def iter_chunks(
        self, chunk_invocations: int = DEFAULT_CHUNK_INVOCATIONS
    ) -> Iterator[Tuple[memoryview, memoryview]]:
        """Yield ``(times, function_ids)`` column slices in replay
        order, ``chunk_invocations`` at a time, without a copy."""
        int_at_least(1).check("chunk_invocations", chunk_invocations)
        times, ids = self.times_s, self.function_ids
        for start in range(0, len(times), chunk_invocations):
            stop = start + chunk_invocations
            yield times[start:stop], ids[start:stop]

    def function(self, name: str) -> TraceFunction:
        return self.functions_table.as_dict()[name]

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Invocation]:
        return map(Invocation, self._times, map(self.functions_table.names.__getitem__, self._ids))

    def arrivals(self) -> Iterator[Tuple[float, TraceFunction]]:
        """``(time_s, function)`` per invocation in replay order — the
        iteration contract every trace form gives the simulator: the
        columns zipped lazily, one arrival at a time."""
        return zip(self._times, map(self.functions_table.objects().__getitem__, self._ids))

    @property
    def duration_s(self) -> float:
        """Time span from the first to the last invocation."""
        if not self._times:
            return 0.0
        return self._times[-1] - self._times[0]

    @property
    def last_arrival_s(self) -> float:
        """Absolute time of the last invocation (0.0 when empty): the
        horizon schedules generated on absolute time must cover."""
        return self._times[-1] if self._times else 0.0

    @property
    def num_functions(self) -> int:
        return len(self.functions_table)

    def arrival_rate(self) -> float:
        """Average invocations per second over the trace duration."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return len(self._times) / duration

    def mean_interarrival_s(self) -> float:
        """Mean inter-arrival time across *all* invocations (Table 2)."""
        if len(self._times) < 2:
            return 0.0
        return self.duration_s / (len(self._times) - 1)

    def per_function_counts(self) -> Dict[str, int]:
        counts = Counter(self._ids)
        return {
            name: counts[fid]
            for fid, name in enumerate(self.functions_table.names)
        }

    def tenant_ids(self) -> Tuple[int, ...]:
        """Sorted distinct tenant ids appearing in this trace."""
        return tuple(sorted({f.tenant_id for f in self.functions_table.objects()}))

    @property
    def has_tenants(self) -> bool:
        """True when any function carries a real (non-zero) tenant id.

        The simulator uses this once-per-run flag to decide whether to
        record per-tenant metrics and attach ``tenant`` event fields;
        tenant-less traces take exactly the legacy code path, keeping
        their event streams and fingerprints byte-identical.
        """
        return self.functions_table.has_tenants

    def restrict(self, function_names: Iterable[str], name: str | None = None) -> "Trace":
        """A sub-trace containing only the given functions' invocations."""
        keep = set(function_names)
        unknown = keep.difference(self.functions_table.names)
        if unknown:
            raise ValueError(f"unknown functions: {sorted(unknown)[:5]}")
        as_dict = self.functions_table.as_dict()
        table = FunctionTable([as_dict[n] for n in sorted(keep)])
        remap = [table._index.get(n, -1) for n in self.functions_table.names]
        ids = list(map(remap.__getitem__, self._ids))
        kept = list(map(le, repeat(0), ids))
        return Trace.from_columns(
            table, compress(self._times, kept), compress(ids, kept),
            name=name or f"{self.name}-restricted",
        )

    def shifted(self, offset_s: float, name: str | None = None) -> "Trace":
        """The same trace with every invocation moved by ``offset_s``."""
        return Trace.from_columns(
            self.functions_table, map(add, self._times, repeat(offset_s)), self._ids,
            name=name or self.name,
        )

    def truncated(self, end_s: float, name: str | None = None) -> "Trace":
        """Only invocations at or before ``end_s``."""
        cut = bisect_right(self._times, end_s)
        return Trace.from_columns(
            self.functions_table, self._times[:cut], self._ids[:cut],
            name=name or f"{self.name}-truncated",
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, functions={self.num_functions}, "
            f"invocations={len(self._times)})"
        )
