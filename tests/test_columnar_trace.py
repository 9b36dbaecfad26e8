"""Structural tests for the columnar trace representation.

Covers the :class:`FunctionTable`/:class:`ColumnarTrace` contracts
(lossless round-trip with the object form, validation, chunked
iteration) and :class:`StreamingChurnTrace` determinism (restartable,
chunk-size independent, materialize == chunk concatenation). The
*behavioral* guarantee — identical simulation metrics from either
representation — lives in ``test_columnar_differential.py``.
"""

import numpy as np
import pytest

from repro.bench import churn_trace
from repro.faults import FaultSpec
from repro.sim.scheduler import simulate
from repro.traces.columnar import ColumnarTrace, FunctionTable
from repro.traces.model import TraceFunction
from repro.traces.streaming import StreamingChurnTrace
from tests.conftest import make_function, make_trace


def small_columnar():
    return ColumnarTrace.from_trace(make_trace("ABCBCAAB"))


class TestFunctionTable:
    def test_rows_in_insertion_order(self):
        funcs = [make_function(n) for n in ("zeta", "alpha", "mid")]
        table = FunctionTable(funcs)
        assert table.names == ("zeta", "alpha", "mid")
        assert [table.index_of(f.name) for f in funcs] == [0, 1, 2]
        assert table.object_of(1) is funcs[1]

    def test_columns_parallel_to_rows(self):
        funcs = [
            TraceFunction("a", 128.0, 0.2, 1.2),
            TraceFunction("b", 512.0, 0.5, 3.0),
        ]
        table = FunctionTable(funcs)
        assert table.memory_mb.tolist() == [128.0, 512.0]
        assert table.warm_time_s.tolist() == [0.2, 0.5]
        assert table.cold_time_s.tolist() == [1.2, 3.0]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FunctionTable([make_function("a"), make_function("a")])

    def test_as_dict_matches_object_trace_contract(self):
        trace = make_trace("AB")
        table = FunctionTable(trace.functions.values())
        assert table.as_dict() == trace.functions

    def test_functions_mapping_is_built_once(self, monkeypatch):
        columnar = small_columnar()
        assert columnar.functions is columnar.functions
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
        trace = ColumnarTrace.from_trace(churn_trace(20, duration_s=2400.0))
        result = simulate(
            trace, "GD", 12 * 128.0, engine="columnar", fault_spec=spec
        )
        assert result.metrics.retries > 0
        assert len(calls) <= 1


class TestColumnarTrace:
    def test_round_trip_is_lossless(self):
        trace = make_trace("ABCBCAAB")
        back = ColumnarTrace.from_trace(trace).to_trace()
        assert back.name == trace.name
        assert back.functions == trace.functions
        assert back.invocations == trace.invocations

    def test_round_trip_large_seeded_trace(self):
        trace = churn_trace(num_functions=40, seed=17)
        back = ColumnarTrace.from_trace(trace).to_trace()
        assert back.invocations == trace.invocations

    def test_replay_order_preserved(self):
        trace = make_trace("BAAB")
        columnar = ColumnarTrace.from_trace(trace)
        names = columnar.functions_table.names
        replayed = [
            (t, names[i])
            for t, i in zip(
                columnar.times_s.tolist(), columnar.function_ids.tolist()
            )
        ]
        assert replayed == [
            (inv.time_s, inv.function_name) for inv in trace.invocations
        ]

    def test_footprint_is_twelve_bytes_per_invocation(self):
        columnar = small_columnar()
        assert columnar.nbytes == 12 * len(columnar)

    def test_shape_mismatch_rejected(self):
        table = FunctionTable([make_function("a")])
        with pytest.raises(ValueError, match="parallel"):
            ColumnarTrace(table, np.zeros(3), np.zeros(2, dtype=np.int32))

    def test_decreasing_times_rejected(self):
        table = FunctionTable([make_function("a")])
        with pytest.raises(ValueError, match="non-decreasing"):
            ColumnarTrace(
                table,
                np.array([1.0, 0.5]),
                np.zeros(2, dtype=np.int32),
            )

    def test_negative_time_rejected(self):
        table = FunctionTable([make_function("a")])
        with pytest.raises(ValueError, match=">= 0"):
            ColumnarTrace(
                table, np.array([-1.0]), np.zeros(1, dtype=np.int32)
            )

    def test_out_of_range_function_id_rejected(self):
        table = FunctionTable([make_function("a")])
        with pytest.raises(ValueError, match="function ids"):
            ColumnarTrace(
                table, np.array([0.0]), np.array([1], dtype=np.int32)
            )

    def test_iter_chunks_partitions_in_order(self):
        columnar = small_columnar()
        chunks = list(columnar.iter_chunks(3))
        assert [len(t) for t, __ in chunks] == [3, 3, 2]
        times = np.concatenate([t for t, __ in chunks])
        ids = np.concatenate([i for __, i in chunks])
        assert np.array_equal(times, columnar.times_s)
        assert np.array_equal(ids, columnar.function_ids)

    def test_iter_chunks_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            list(small_columnar().iter_chunks(0))

    def test_per_function_counts(self):
        columnar = small_columnar()
        assert columnar.per_function_counts() == {"A": 3, "B": 3, "C": 2}

    def test_trace_compatible_surface(self):
        trace = make_trace("ABCBCAAB")
        columnar = ColumnarTrace.from_trace(trace)
        assert columnar.functions == trace.functions
        assert columnar.duration_s == trace.duration_s
        assert columnar.num_functions == len(trace.functions)
        assert len(columnar) == len(trace.invocations)

    def test_empty_trace(self):
        table = FunctionTable([make_function("a")])
        empty = ColumnarTrace(
            table, np.empty(0), np.empty(0, dtype=np.int32)
        )
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
        """(time, function id) heap order must equal the object
        trace's canonical (time, function name) sort — the zero-padded
        names guarantee it."""
        stream = StreamingChurnTrace(
            num_functions=25, duration_s=4000.0, seed=9
        )
        trace = stream.materialize().to_trace()
        expected = sorted(
            trace.invocations,
            key=lambda inv: (inv.time_s, inv.function_name),
        )
        assert list(trace.invocations) == expected

    def test_arrivals_respect_duration(self):
        stream = StreamingChurnTrace(
            num_functions=20, duration_s=1500.0, seed=3
        )
        times = stream.materialize().times_s
        assert times.size > 0
        assert float(times[-1]) < 1500.0

    def test_different_seeds_differ(self):
        a = StreamingChurnTrace(num_functions=20, duration_s=2000.0, seed=1)
        b = StreamingChurnTrace(num_functions=20, duration_s=2000.0, seed=2)
        assert not np.array_equal(
            a.materialize().times_s, b.materialize().times_s
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            StreamingChurnTrace(num_functions=0)
        with pytest.raises(ValueError, match="duration"):
            StreamingChurnTrace(duration_s=0.0)
        with pytest.raises(ValueError, match=">= 1"):
            StreamingChurnTrace(chunk_invocations=0)
