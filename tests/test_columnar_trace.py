"""Structural tests for the trace's column form.

Covers the :class:`FunctionTable` registry and the :class:`Trace`
columns (lossless against the invocation objects, validation,
canonical order, chunked iteration) and :class:`StreamingChurnTrace`
determinism (restartable, chunk-size independent, materialize == chunk
concatenation, and ``chunks()`` byte for byte the per-arrival heap
merge it replaced, kept here as :func:`reference_chunks`). The
*behavioral* guarantee — the kernels' metrics equal the arrival loop's
— lives in ``test_columnar_differential.py``.
"""

import heapq
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.sim.columnar import _TTLKernelState
from repro.sim.scheduler import simulate
from repro.traces import streaming
from repro.traces.io import load_trace_json
from repro.traces.model import FunctionTable, Invocation, Trace, TraceFunction
from repro.traces.streaming import (
    _STREAM_SEED_STRIDE,
    STREAM_IAT_CHOICES_S,
    StreamingChurnTrace,
    _round6,
)
from repro.traces.synth import churn_trace
from tests.conftest import make_function, make_trace


def small_trace():
    return make_trace("ABCBCAAB")


def column_bytes(trace):
    return trace.times_s.tobytes(), trace.function_ids.tobytes()


class TestFunctionTable:
    def test_rows_in_insertion_order(self):
        funcs = [make_function(n) for n in ("zeta", "alpha", "mid")]
        table = FunctionTable(funcs)
        assert table.names == ("zeta", "alpha", "mid")
        assert [table.index_of(f.name) for f in funcs] == [0, 1, 2]
        assert table.objects()[1] is funcs[1]

    def test_columns_parallel_to_rows(self):
        """The TTL kernel builds the columns it reads from the rows."""
        funcs = [
            TraceFunction("a", 128.0, 0.2, 1.2),
            TraceFunction("b", 512.0, 0.5, 3.0),
        ]
        state = _TTLKernelState(FunctionTable(funcs))
        assert state.names == ("a", "b")
        assert state.warm_time_s.tolist() == [0.2, 0.5]
        assert state.cold_time_s.tolist() == [1.2, 3.0]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FunctionTable([make_function("a"), make_function("a")])

    def test_as_dict_matches_object_trace_contract(self):
        trace = make_trace("AB")
        table = FunctionTable(trace.functions.values())
        assert table.as_dict() == trace.functions

    def test_functions_mapping_is_built_once(self, monkeypatch):
        table = small_trace().functions_table
        assert table.as_dict() is table.as_dict()
        stream = StreamingChurnTrace(num_functions=5, duration_s=600.0)
        assert stream.functions is stream.functions
        # A faulted replay resolves retries by name on every arrival's
        # fault-advance: it must read the registry once, not per access.
        calls = []
        as_dict = FunctionTable.as_dict
        monkeypatch.setattr(
            FunctionTable,
            "as_dict",
            lambda table: calls.append(1) or as_dict(table),
        )
        spec = FaultSpec(seed=3, crash_rate=0.2, harvest_interval_s=300.0)
        trace = churn_trace(20, duration_s=2400.0)
        result = simulate(
            trace, "GD", 12 * 128.0, engine="columnar", fault_spec=spec
        )
        assert result.metrics.retries > 0
        assert len(calls) <= 1


class TestColumnarTrace:
    """A trace is its two columns: what the objects and the columns
    constructors build is the same trace."""

    def test_round_trip_is_lossless(self):
        trace = make_trace("ABCBCAAB")
        from_objects = Trace(trace.functions.values(), trace.invocations, name=trace.name)
        from_columns = Trace.from_columns(
            trace.functions.values(), trace.times_s, trace.function_ids, name=trace.name
        )
        for back in (from_objects, from_columns):
            assert back.name == trace.name
            assert back.functions == trace.functions
            assert back.invocations == trace.invocations
            assert column_bytes(back) == column_bytes(trace)

    def test_round_trip_large_seeded_trace(self):
        trace = churn_trace(num_functions=40, seed=17)
        back = Trace(trace.functions.values(), list(trace), name=trace.name)
        assert back.invocations == trace.invocations
        assert column_bytes(back) == column_bytes(trace)

    def test_replay_order_preserved(self):
        trace = make_trace("BAAB")
        names = trace.functions_table.names
        replayed = [
            (t, names[i])
            for t, i in zip(trace.times_s.tolist(), trace.function_ids.tolist())
        ]
        assert replayed == [
            (inv.time_s, inv.function_name) for inv in trace.invocations
        ]

    def test_footprint_is_twelve_bytes_per_invocation(self):
        trace = small_trace()  # a float64 time and an int32 row id
        assert trace.times_s.itemsize + trace.function_ids.itemsize == 12
        assert len(trace.times_s) == len(trace.function_ids) == len(trace)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            Trace.from_columns([make_function("a")], [0.0, 0.0, 0.0], [0, 0])

    def test_decreasing_times_are_sorted(self):
        trace = Trace.from_columns([make_function("a")], [1.0, 0.5], [0, 0])
        assert trace.times_s.tolist() == [0.5, 1.0]

    def test_tied_times_replay_in_name_order(self):
        """Columns with a tie out of name order, ``b, a, b`` at 1, 1 and
        5 s, are the trace ``a, b, b``: on a one-container GD pool ``a``
        is cold, ``b`` drops behind it, and ``b`` evicts ``a`` at 5 s.
        Replayed as given, ``b`` would be warm at 5 s."""
        a, b = TraceFunction("a", 128.0, 0.2, 1.0), TraceFunction("b", 128.0, 0.2, 1.0)
        trace = Trace.from_columns([a, b], [1.0, 1.0, 5.0], [1, 0, 1])
        assert [(i.time_s, i.function_name) for i in trace] == [
            (1.0, "a"), (1.0, "b"), (5.0, "b"),
        ]
        for engine in ("object", "columnar"):
            metrics = simulate(trace, "GD", 128.0, engine=engine).metrics
            assert (metrics.warm_starts, metrics.cold_starts, metrics.evictions) == (0, 2, 1)
            assert metrics.dropped == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Trace.from_columns([make_function("a")], [-1.0], [0])

    @pytest.mark.parametrize(
        "times",
        [[math.nan], [0.0, math.nan, 5.0], [0.0, 5.0, math.nan], [0.0, math.inf]],
    )
    def test_non_finite_times_rejected(self, times):
        """Every check is a comparison a NaN answers False: written
        the wrong way round it lets the NaN (or an infinite fault
        horizon, ``last_arrival_s``) through to the kernel."""
        with pytest.raises(ValueError, match="invocation times must be"):
            Trace.from_columns([make_function("a")], times, [0] * len(times))

    def test_out_of_range_function_id_rejected(self):
        with pytest.raises(ValueError, match="function ids"):
            Trace.from_columns([make_function("a")], [0.0], [1])

    def test_iter_chunks_partitions_in_order(self):
        trace = small_trace()
        chunks = list(trace.iter_chunks(3))
        assert [len(t) for t, __ in chunks] == [3, 3, 2]
        times = np.concatenate([t for t, __ in chunks])
        ids = np.concatenate([i for __, i in chunks])
        assert np.array_equal(times, trace.times_s)
        assert np.array_equal(ids, trace.function_ids)

    def test_iter_chunks_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            list(small_trace().iter_chunks(0))

    def test_per_function_counts(self):
        assert small_trace().per_function_counts() == {"A": 3, "B": 3, "C": 2}

    def test_trace_compatible_surface(self):
        trace = make_trace("ABCBCAAB")
        columns = Trace.from_columns(
            trace.functions_table, trace.times_s.tolist(), trace.function_ids.tolist()
        )
        assert columns.functions == trace.functions
        assert columns.duration_s == trace.duration_s
        assert columns.num_functions == len(trace.functions)
        assert len(columns) == len(trace.invocations)

    def test_empty_trace(self):
        empty = Trace.from_columns([make_function("a")], [], [])
        assert len(empty) == 0
        assert empty.duration_s == 0.0
        assert list(empty.iter_chunks()) == []


class TestStreamingChurnTrace:
    def test_chunks_are_chunk_size_independent(self):
        kwargs = dict(num_functions=30, duration_s=3000.0, seed=11)
        small = StreamingChurnTrace(chunk_invocations=64, **kwargs)
        large = StreamingChurnTrace(chunk_invocations=4096, **kwargs)
        a, b = small.materialize(), large.materialize()
        assert np.array_equal(a.times_s, b.times_s)
        assert np.array_equal(a.function_ids, b.function_ids)

    def test_chunks_are_restartable(self):
        stream = StreamingChurnTrace(
            num_functions=20, duration_s=2000.0, seed=5
        )
        first = stream.materialize()
        second = stream.materialize()
        assert np.array_equal(first.times_s, second.times_s)
        assert np.array_equal(first.function_ids, second.function_ids)

    def test_chunk_sizes_respected(self):
        stream = StreamingChurnTrace(
            num_functions=20,
            duration_s=2000.0,
            seed=5,
            chunk_invocations=50,
        )
        sizes = [len(times) for times, __ in stream.chunks()]
        assert all(size == 50 for size in sizes[:-1])
        assert 0 < sizes[-1] <= 50

    def test_merge_order_equals_object_sort_order(self):
        """(time, function id) merge order must equal the object
        trace's canonical (time, function name) sort — the zero-padded
        names guarantee it."""
        stream = StreamingChurnTrace(
            num_functions=25, duration_s=4000.0, seed=9
        )
        names = stream.functions_table.names
        merged = [
            (time_s, names[fid])
            for times, ids in stream.chunks()
            for time_s, fid in zip(times.tolist(), ids.tolist())
        ]
        assert merged == sorted(merged)

    def test_arrivals_respect_duration(self):
        stream = StreamingChurnTrace(
            num_functions=20, duration_s=1500.0, seed=3
        )
        times = stream.materialize().times_s
        assert len(times) > 0
        assert float(times[-1]) < 1500.0

    def test_different_seeds_differ(self):
        a = StreamingChurnTrace(num_functions=20, duration_s=2000.0, seed=1)
        b = StreamingChurnTrace(num_functions=20, duration_s=2000.0, seed=2)
        assert not np.array_equal(
            a.materialize().times_s, b.materialize().times_s
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="num_functions must be an integer >= 1"):
            StreamingChurnTrace(num_functions=0)
        with pytest.raises(ValueError, match="duration"):
            StreamingChurnTrace(duration_s=0.0)
        with pytest.raises(ValueError, match=">= 1"):
            StreamingChurnTrace(chunk_invocations=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": math.nan},  # was a silently empty trace
            {"duration_s": math.inf},  # never terminated
            {"chunk_invocations": 2.5},
            {"chunk_invocations": math.nan},
            {"chunk_invocations": math.inf},
        ],
    )
    def test_non_finite_and_fractional_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError, match="duration_s|chunk_invocations"):
            StreamingChurnTrace(num_functions=3, **kwargs)


@pytest.mark.parametrize("time_s", [math.nan, math.inf, -1.0])
def test_invocation_rejects_non_finite_time(time_s):
    """``Trace`` sorts its invocations: one NaN among them and the
    replay order is whatever the sort's comparisons happened to say."""
    with pytest.raises(ValueError, match="finite and >= 0"):
        Invocation(time_s, "f")


def test_load_trace_json_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"format": "repro-trace", "version": 1, "name": "t", '
        '"functions": [{"name": "f", "memory_mb": 128.0, '
        '"warm_time_s": 0.2, "cold_time_s": 1.2}], '
        '"invocations": [[0.0, "f"], [NaN, "f"]]}'
    )
    with pytest.raises(ValueError, match="finite"):
        load_trace_json(path)


# ----------------------------------------------------------------------
# chunks() against the generator it replaced
# ----------------------------------------------------------------------


def reference_chunks(stream):
    """The oracle: ``StreamingChurnTrace.chunks()`` as it was before
    the column-wise generator, verbatim — a heap holding one pending
    arrival per function, one pop, ``uniform``, ``round`` and push per
    arrival."""
    heap = []
    for i in range(stream.num_functions):
        rng = random.Random(stream.seed * _STREAM_SEED_STRIDE + i)
        iat = STREAM_IAT_CHOICES_S[rng.randrange(len(STREAM_IAT_CHOICES_S))]
        t = rng.uniform(0.0, iat)
        if t < stream.duration_s:
            heap.append((round(t, 6), i, iat, rng))
    heapq.heapify(heap)
    chunk = stream.chunk_invocations
    times, ids = [], []
    while heap:
        t, i, iat, rng = heapq.heappop(heap)
        times.append(t)
        ids.append(i)
        nxt = t + iat * rng.uniform(0.7, 1.3)
        if nxt < stream.duration_s:
            heapq.heappush(heap, (round(nxt, 6), i, iat, rng))
        if len(times) >= chunk:
            yield np.array(times, dtype=np.float64), np.array(ids, dtype=np.int32)
            times, ids = [], []
    if times:
        yield np.array(times, dtype=np.float64), np.array(ids, dtype=np.int32)


def chunk_bytes(chunks):
    """Everything two chunk sequences must agree on: boundaries,
    dtypes and the bytes of both columns."""
    return [
        (t.dtype, i.dtype, t.shape, i.shape, t.tobytes(), i.tobytes())
        for t, i in chunks
    ]


def assert_equals_reference(stream):
    assert chunk_bytes(stream.chunks()) == chunk_bytes(reference_chunks(stream))


class TestChunksEqualTheHeapMerge:
    @settings(deadline=None, max_examples=120)
    @given(
        num_functions=st.integers(1, 80),
        duration_s=st.floats(1.0, 20_000.0),
        chunk_invocations=st.integers(1, 5_000),
        num_tenants=st.integers(0, 4),
        # 4,295 * 1_000_003 is the first stream seed past 2**32: the
        # generator is seeded from two 32-bit words from there on.
        seed=st.integers(-10_000, 10_000)
        | st.sampled_from([0, -1, 4_294, 4_295, 4_296, 2**40, -(2**40)]),
    )
    @example(
        num_functions=80, duration_s=20_000.0, chunk_invocations=1,
        num_tenants=0, seed=0,
    )
    def test_any_stream(
        self, num_functions, duration_s, chunk_invocations, num_tenants, seed
    ):
        assert_equals_reference(
            StreamingChurnTrace(
                num_functions=num_functions,
                duration_s=duration_s,
                seed=seed,
                chunk_invocations=chunk_invocations,
                num_tenants=num_tenants,
            )
        )

    def test_two_functions_in_one_microsecond(self):
        """The merge sorts a window by time alone and lets the id
        decide only where two times are equal: this stream has such a
        pair, and the time-only order gets it wrong."""
        stream = StreamingChurnTrace(
            num_functions=200, duration_s=20_000.0, seed=22
        )
        times = np.concatenate([t for t, __ in stream.chunks()])
        assert (np.diff(times) == 0.0).any()
        assert_equals_reference(stream)

    def test_more_windows_than_one_and_chunks_across_them(self):
        """Chunks are cut from merged windows: a chunk larger than a
        window, smaller than one, and one that divides nothing."""
        for chunk in (streaming._WINDOW_ARRIVALS * 3 + 1, 1_000, 7_777):
            stream = StreamingChurnTrace(
                num_functions=700, duration_s=6_000.0, seed=3,
                chunk_invocations=chunk,
            )
            assert_equals_reference(stream)
            arrivals = sum(len(times) for times, __ in stream.chunks())
            assert arrivals > 3 * streaming._WINDOW_ARRIVALS

    def test_no_first_arrival_inside_the_duration(self):
        stream = StreamingChurnTrace(num_functions=20, duration_s=1e-9, seed=1)
        assert list(reference_chunks(stream)) == []
        assert list(stream.chunks()) == []
        assert len(stream.materialize()) == 0

    def test_a_rounded_arrival_may_equal_the_duration(self):
        """Liveness is tested on the unrounded time, so the bound on
        an emitted (rounded) one is <=, as ``last_arrival_s`` says."""
        probe = StreamingChurnTrace(num_functions=1, duration_s=5_000.0, seed=0)
        last = float(probe.materialize().times_s[-1])
        stream = StreamingChurnTrace(
            num_functions=1, duration_s=math.nextafter(last, 0.0), seed=0
        )
        got = stream.materialize().times_s
        assert float(got[-1]) == last > stream.duration_s
        assert_equals_reference(stream)

    def test_passes_are_equal_and_arrivals_are_the_chunks_flattened(self):
        stream = StreamingChurnTrace(
            num_functions=40, duration_s=3_000.0, seed=-5, chunk_invocations=97
        )
        first = chunk_bytes(stream.chunks())
        assert first == chunk_bytes(stream.chunks())
        names = stream.functions_table.names
        flattened = [
            (time_s, names[fid])
            for times, ids in stream.chunks()
            for time_s, fid in zip(times.tolist(), ids.tolist())
        ]
        assert [(t, f.name) for t, f in stream.arrivals()] == flattened


# ----------------------------------------------------------------------
# _round6 against the builtin
# ----------------------------------------------------------------------


def near_ties():
    """Doubles within 3 ulp of a decimal tie ``(k + 0.5) / 1e6``, for
    k from 0 up to 1e11 (a year of seconds is 3e13 microseconds)."""
    rng = random.Random(20)
    ks = list(range(200)) + [rng.randrange(10**e) for e in range(3, 12) for __ in range(300)]
    values = []
    for k in ks:
        tie = (k + 0.5) / 1e6
        values.append(tie)
        up = down = tie
        for __ in range(3):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            values += [up, down]
    return values


class TestRound6:
    @staticmethod
    def assert_bitwise_builtin(values):
        got = _round6(np.array(values, dtype=np.float64))
        want = np.array([round(v, 6) for v in values], dtype=np.float64)
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.floats(0.0, 1e9), min_size=1, max_size=50))
    def test_equals_round_on_any_floats(self, values):
        self.assert_bitwise_builtin(values)

    def test_equals_round_next_to_every_tie(self, monkeypatch):
        values = near_ties()
        # The corpus is adversarial: the shortcut alone gets some of
        # it wrong, and _round6 sends those through the builtin.
        array = np.array(values)
        shortcut = np.rint(array * 1e6) / 1e6
        assert any(s != round(v, 6) for s, v in zip(shortcut.tolist(), values))
        through_builtin = []
        monkeypatch.setattr(
            streaming, "round",
            lambda v, n: through_builtin.append(v) or round(v, n),
            raising=False,
        )
        self.assert_bitwise_builtin(values)
        assert 0 < len(through_builtin) < len(values)

    def test_beyond_the_exact_range_everything_takes_the_builtin(self):
        # scaled >= 2**51: the half-ulp margin is no longer below .5.
        self.assert_bitwise_builtin(
            [2.0**51 / 1e6, 3e9 + 0.1234565, 1e12 + 0.5, 2.0**70, 1e300]
        )
