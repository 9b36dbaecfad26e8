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
* the streams advance as columns, every function due inside a time
  window one step per NumPy round, and one sort per window merges them
  into global ``(time, function name)`` replay order — the object
  ``Trace``'s canonical sort order (docs/performance-log.md, "The
  streamed trace path", has the exactness argument);
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

import random
from math import inf
from typing import Callable, Iterator, List, Tuple

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

#: Uniforms drawn from a function's generator per refill, and arrivals
#: per merge window: sized in docs/performance-log.md, "The streamed
#: trace path" (flat in speed around these, linear in ``peak_mb``).
_DRAW_BLOCK = 32
_WINDOW_ARRIVALS = 8_192


def _round6(x: np.ndarray) -> np.ndarray:
    """``round(v, 6)`` of every element of a non-negative array, bit
    for bit. ``round`` returns the double nearest the decimal that
    correctly rounds ``v``; ``k / 1e6`` is that double whenever ``k``
    is the right integer, and ``rint`` of the product can pick a wrong
    one only when the product, off by at most half an ulp (``scaled *
    2**-53``), lies that close to a tie. Those elements (all of them
    from ``scaled >= 2**51``, where the margin reaches .5) take the
    builtin."""
    scaled = x * 1e6
    nearest = np.rint(scaled)
    rounded = nearest / 1e6
    exact = np.abs(scaled - nearest) < 0.5 - scaled * 2.0**-52
    if not exact.all():
        for j in np.flatnonzero(~exact).tolist():
            rounded[j] = round(float(x[j]), 6)
    return rounded


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
        if not 0 < duration_s < inf:
            raise ValueError(
                f"duration must be positive and finite, got {duration_s}"
            )
        if not chunk_invocations >= 1 or chunk_invocations % 1:
            raise ValueError(
                f"chunk size must be an integer >= 1, got {chunk_invocations}"
            )
        if num_tenants < 0:
            raise ValueError(
                f"num_tenants must be >= 0, got {num_tenants}"
            )
        self.num_functions = num_functions
        self.num_tenants = num_tenants
        self.duration_s = duration_s
        self.seed = seed
        self.chunk_invocations = int(chunk_invocations)
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

    def _streams(self) -> Tuple[np.ndarray, np.ndarray, List[Callable[[], float]]]:
        """Fresh per-function stream state, a column each: the next
        (rounded) arrival, ``inf`` once the stream has passed
        ``duration_s``; the inter-arrival time; the function's own
        uniform generator."""
        rngs = [
            random.Random(self.seed * _STREAM_SEED_STRIDE + i)
            for i in range(self.num_functions)
        ]
        choices = STREAM_IAT_CHOICES_S
        iat = [choices[rng.randrange(len(choices))] for rng in rngs]
        first = np.array([rng.uniform(0.0, step) for rng, step in zip(rngs, iat)])
        next_t = np.where(first < self.duration_s, _round6(first), inf)
        return next_t, np.array(iat), [rng.random for rng in rngs]

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(times, function_ids)`` arrays in replay order.

        Restartable: every call regenerates the same arrivals from the
        per-function seeds.
        """
        next_t, iat, uniforms = self._streams()
        duration_s, chunk = self.duration_s, self.chunk_invocations
        window_s = _WINDOW_ARRIVALS / float(np.add.reduce(1.0 / iat))
        # A function reads its generator _DRAW_BLOCK uniforms at a
        # time: draws[i, cursor[i]] is its next one, column 0 a refill.
        draws = np.empty((len(uniforms), _DRAW_BLOCK))
        cursor = np.zeros(len(uniforms), dtype=np.intp)
        held_t, held_i, held = [], [], 0  # merged, not yet a whole chunk
        while (end_s := float(next_t.min()) + window_s) < inf:
            live = np.flatnonzero(next_t < end_s)
            window_t, window_i = [], []
            while live.size:  # a round: one step of every stream still inside
                t = next_t[live]
                window_t.append(t)
                window_i.append(live)
                at = cursor[live]
                dry = live[at == 0]
                if dry.size:
                    draws[dry] = np.array([
                        uniform()
                        for uniform in map(uniforms.__getitem__, dry.tolist())
                        for __ in range(_DRAW_BLOCK)
                    ]).reshape(-1, _DRAW_BLOCK)
                cursor[live] = (at + 1) % _DRAW_BLOCK
                # Advance from the emitted (rounded) time by the scalar
                # t + iat * rng.uniform(0.7, 1.3), a ufunc per operator.
                nxt = t + iat[live] * (0.7 + (1.3 - 0.7) * draws[live, at])
                nxt = np.where(nxt < duration_s, _round6(nxt), inf)
                next_t[live] = nxt
                live = live[nxt < end_s]
            # Merge into (time, id) order. A function's steps are >= 42 s
            # apart, so only two functions can share a microsecond, and
            # only then (seldom) does the id have to decide.
            times, ids = np.concatenate(window_t), np.concatenate(window_i)
            order = np.argsort(times)
            if (np.diff(times[order]) == 0.0).any():
                order = np.lexsort((ids, times))
            held_t.append(times[order])
            held_i.append(ids[order].astype(np.int32))
            held += order.size
            if held >= chunk:
                times, ids = np.concatenate(held_t), np.concatenate(held_i)
                for cut in range(0, held - chunk + 1, chunk):
                    yield times[cut:cut + chunk], ids[cut:cut + chunk]
                held %= chunk
                held_t, held_i = [times[times.size - held:]], [ids[ids.size - held:]]
        if held:
            yield np.concatenate(held_t), np.concatenate(held_i)

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
