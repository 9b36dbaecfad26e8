"""Streaming synthetic trace generation.

A full-day, million-invocation synthetic workload never needs to
exist in memory at once: each function's arrival process is an
independent seeded stream, so the whole trace is a deterministic
*merge* of per-function streams that can be produced chunk by chunk.

:class:`StreamingChurnTrace` generates the benchmark churn workload
(periodic per-function arrivals with seeded inter-arrival jitter, the
same shape as :func:`repro.bench.churn_trace`) that way:

* every function owns a :class:`random.Random` seeded from
  ``(seed, function index)``, so its arrival stream is independent of
  every other function's and of the chunk size;
* a heap merges the per-function streams into global
  ``(time, function name)`` replay order — the object ``Trace``'s
  canonical sort order — holding one pending arrival per function;
* :meth:`chunks` yields columnar ``(times, function_ids)`` arrays of
  at most ``chunk_invocations`` entries, so peak memory is
  ``O(num_functions + chunk_invocations)`` regardless of duration.

Iteration is restartable: every :meth:`chunks` call reseeds the
per-function streams, so two passes (or a pass after a fallback)
yield byte-identical arrivals. :meth:`materialize` concatenates the
chunks into a :class:`~repro.traces.columnar.ColumnarTrace` — the
differential-testing bridge, sensible only at small scale.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, List, Tuple

import numpy as np

from repro.traces.columnar import ColumnarTrace, FunctionTable
from repro.traces.model import TraceFunction

__all__ = ["StreamingChurnTrace", "STREAM_IAT_CHOICES_S"]

#: Per-function inter-arrival choices (seconds), as in the benchmark
#: churn workload: a short-IAT majority that stays warm under keep-
#: alive and a long-IAT tail that expires between arrivals.
STREAM_IAT_CHOICES_S = (60.0, 120.0, 240.0, 480.0, 960.0)

#: Multiplier decorrelating per-function stream seeds from the trace
#: seed (a large prime, so adjacent trace seeds share no streams).
_STREAM_SEED_STRIDE = 1_000_003


class StreamingChurnTrace:
    """Chunked generator for the churn workload at unbounded scale."""

    def __init__(
        self,
        num_functions: int = 1620,
        duration_s: float = 9600.0,
        seed: int = 0,
        chunk_invocations: int = 65_536,
        memory_mb: float = 128.0,
        warm_time_s: float = 0.2,
        cold_time_s: float = 1.2,
        name: str = "stream-churn",
        num_tenants: int = 0,
    ) -> None:
        if num_functions < 1:
            raise ValueError(
                f"need at least one function, got {num_functions}"
            )
        if duration_s <= 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if chunk_invocations < 1:
            raise ValueError(
                f"chunk size must be >= 1, got {chunk_invocations}"
            )
        if num_tenants < 0:
            raise ValueError(
                f"num_tenants must be >= 0, got {num_tenants}"
            )
        self.num_functions = num_functions
        self.num_tenants = num_tenants
        self.duration_s = duration_s
        self.seed = seed
        self.chunk_invocations = chunk_invocations
        self.name = name
        # Zero-padded names make (time, function id) merge order equal
        # the object trace's (time, function name) sort order.
        width = len(str(num_functions - 1)) if num_functions > 1 else 1
        # num_tenants > 0 deals functions round-robin to tenants
        # 1..num_tenants (0 is reserved for "untenanted"); the default
        # of 0 keeps every function untenanted and the generated
        # arrivals byte-identical to the pre-tenancy streams — tenant
        # assignment never perturbs the seeded arrival RNGs.
        self.functions_table = FunctionTable(
            TraceFunction(
                name=f"{name}-{i:0{width}d}",
                memory_mb=memory_mb,
                warm_time_s=warm_time_s,
                cold_time_s=cold_time_s,
                tenant_id=(i % num_tenants) + 1 if num_tenants else 0,
            )
            for i in range(num_functions)
        )

    @property
    def functions(self):
        """Name-to-function mapping (the object ``Trace`` contract)."""
        return self.functions_table.as_dict()

    @property
    def last_arrival_s(self) -> float:
        """Upper bound on the last arrival: streams stop generating at
        ``duration_s``, and nothing is known tighter without a pass."""
        return self.duration_s

    def arrivals(self) -> Iterator[Tuple[float, TraceFunction]]:
        """``(time_s, function)`` per invocation in replay order,
        generated chunk by chunk (restartable, like :meth:`chunks`)."""
        return self.functions_table.arrivals(self.chunks())

    def _streams(self) -> List[Tuple[float, int, float, random.Random]]:
        """Fresh per-function stream states: (next_t, id, iat, rng)."""
        heap: List[Tuple[float, int, float, random.Random]] = []
        for i in range(self.num_functions):
            rng = random.Random(self.seed * _STREAM_SEED_STRIDE + i)
            iat = STREAM_IAT_CHOICES_S[
                rng.randrange(len(STREAM_IAT_CHOICES_S))
            ]
            t = rng.uniform(0.0, iat)
            if t < self.duration_s:
                heap.append((round(t, 6), i, iat, rng))
        heapq.heapify(heap)
        return heap

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(times, function_ids)`` arrays in replay order.

        Restartable: every call regenerates the same arrivals from the
        per-function seeds.
        """
        heap = self._streams()
        chunk = self.chunk_invocations
        times: List[float] = []
        ids: List[int] = []
        while heap:
            t, i, iat, rng = heapq.heappop(heap)
            times.append(t)
            ids.append(i)
            # Advance from the emitted (rounded) time, so the stream
            # is a pure function of the per-function seed and restarts
            # reproduce it exactly.
            nxt = t + iat * rng.uniform(0.7, 1.3)
            if nxt < self.duration_s:
                heapq.heappush(heap, (round(nxt, 6), i, iat, rng))
            if len(times) >= chunk:
                yield (
                    np.array(times, dtype=np.float64),
                    np.array(ids, dtype=np.int32),
                )
                times = []
                ids = []
        if times:
            yield (
                np.array(times, dtype=np.float64),
                np.array(ids, dtype=np.int32),
            )

    def materialize(self) -> ColumnarTrace:
        """Concatenate all chunks (small-scale differential oracle)."""
        times: List[np.ndarray] = []
        ids: List[np.ndarray] = []
        for chunk_times, chunk_ids in self.chunks():
            times.append(chunk_times)
            ids.append(chunk_ids)
        if not times:
            times = [np.empty(0, dtype=np.float64)]
            ids = [np.empty(0, dtype=np.int32)]
        return ColumnarTrace(
            self.functions_table,
            np.concatenate(times),
            np.concatenate(ids),
            name=self.name,
        )

    def __repr__(self) -> str:
        return (
            f"StreamingChurnTrace(name={self.name!r}, "
            f"functions={self.num_functions}, "
            f"duration_s={self.duration_s}, seed={self.seed})"
        )
