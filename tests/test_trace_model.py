"""Unit tests for the trace data model."""

import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.io import load_trace_json, save_trace_json
from repro.traces.model import Invocation, Trace, TraceFunction
from tests.conftest import make_function, make_trace


class TestTraceFunction:
    def test_init_time_is_cold_minus_warm(self):
        f = TraceFunction("f", 128.0, warm_time_s=1.0, cold_time_s=3.5)
        assert f.init_time_s == pytest.approx(2.5)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            TraceFunction("f", 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            TraceFunction("f", -5.0, 1.0, 2.0)

    def test_rejects_cold_faster_than_warm(self):
        with pytest.raises(ValueError):
            TraceFunction("f", 128.0, warm_time_s=3.0, cold_time_s=1.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            TraceFunction("f", 128.0, warm_time_s=-1.0, cold_time_s=1.0)

    def test_zero_init_time_allowed(self):
        f = TraceFunction("f", 128.0, warm_time_s=2.0, cold_time_s=2.0)
        assert f.init_time_s == 0.0

    def test_frozen(self):
        f = make_function()
        with pytest.raises(AttributeError):
            f.memory_mb = 512.0


class TestInvocation:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Invocation(-1.0, "f")

    def test_ordering_by_time(self):
        assert Invocation(1.0, "b") < Invocation(2.0, "a")


class TestTrace:
    def test_sorts_invocations(self):
        f = make_function("A")
        trace = Trace([f], [Invocation(5.0, "A"), Invocation(1.0, "A")])
        times = [inv.time_s for inv in trace]
        assert times == [1.0, 5.0]

    def test_rejects_duplicate_functions(self):
        with pytest.raises(ValueError):
            Trace([make_function("A"), make_function("A")], [])

    def test_rejects_unknown_function_reference(self):
        with pytest.raises(ValueError):
            Trace([make_function("A")], [Invocation(0.0, "B")])

    def test_len_and_num_functions(self):
        trace = make_trace("AABBA")
        assert len(trace) == 5
        assert trace.num_functions == 2

    def test_duration_and_rates(self):
        trace = make_trace("ABAB", gap_s=10.0)
        assert trace.duration_s == pytest.approx(30.0)
        assert trace.arrival_rate() == pytest.approx(4 / 30.0)
        assert trace.mean_interarrival_s() == pytest.approx(10.0)

    def test_empty_trace_rates(self):
        trace = Trace([make_function("A")], [])
        assert trace.duration_s == 0.0
        assert trace.arrival_rate() == 0.0
        assert trace.mean_interarrival_s() == 0.0

    def test_per_function_counts(self):
        trace = make_trace("AABAC")
        counts = trace.per_function_counts()
        assert counts == {"A": 3, "B": 1, "C": 1}

    def test_restrict(self):
        trace = make_trace("AABAC")
        sub = trace.restrict(["A"])
        assert len(sub) == 3
        assert sub.num_functions == 1

    def test_restrict_unknown_raises(self):
        trace = make_trace("AB")
        with pytest.raises(ValueError):
            trace.restrict(["Z"])

    def test_shifted(self):
        trace = make_trace("AB", gap_s=5.0)
        shifted = trace.shifted(100.0)
        assert shifted.invocations[0].time_s == pytest.approx(100.0)
        assert shifted.duration_s == trace.duration_s

    def test_truncated(self):
        trace = make_trace("ABCD", gap_s=10.0)
        cut = trace.truncated(15.0)
        assert len(cut) == 2

    def test_merged_with(self):
        a = make_trace("AA")
        b = make_trace("BB")
        merged = a.merged_with(b)
        assert len(merged) == 4
        assert merged.num_functions == 2

    def test_merged_with_conflicting_function_raises(self):
        a = Trace([make_function("A", memory_mb=100)], [])
        b = Trace([make_function("A", memory_mb=200)], [])
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merged_with_shared_identical_function(self):
        f = make_function("A")
        a = Trace([f], [Invocation(0.0, "A")])
        b = Trace([f], [Invocation(1.0, "A")])
        merged = a.merged_with(b)
        assert len(merged) == 2

    def test_function_lookup(self):
        trace = make_trace("A")
        assert trace.function("A").name == "A"
        with pytest.raises(KeyError):
            trace.function("Z")

    def test_functions_returns_copy(self):
        trace = make_trace("A")
        fns = trace.functions
        fns.clear()
        assert trace.num_functions == 1

    def test_invocations_is_not_rebuilt_per_access(self):
        trace = make_trace("ABAB")
        assert isinstance(trace.invocations, tuple)
        assert trace.invocations is trace.invocations


#: Few distinct times (an int among the floats: ``1 == 1.0``) and few
#: names, so a drawn list is full of repeated times and repeated
#: ``(time, name)`` pairs — where a sort's stability shows.
arrival_lists = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1, 1.0, 2.25, 7.0]), st.sampled_from("ABC"))
).map(lambda pairs: [Invocation(t, name) for t, name in pairs])


def same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class TestReplayOrder:
    """``Trace`` orders arrivals with two stable key passes in C; the
    result must be ``sorted()`` over ``Invocation.__lt__`` (the
    dataclass's field-tuple comparison) object for object."""

    FUNCTIONS = [make_function(name) for name in "ABC"]

    @given(arrival_lists)
    def test_constructor_order_is_sorted_order(self, invocations):
        ordered = Trace(self.FUNCTIONS, invocations).invocations
        assert same_objects(ordered, sorted(invocations))
        assert same_objects(
            ordered, sorted(invocations, key=lambda i: (i.time_s, i.function_name))
        )

    def test_comparison_operators_are_the_dataclass_ones(self):
        early, late = Invocation(1.0, "B"), Invocation(1.0, "C")
        assert early < late and late > early and early <= late and late >= early
        assert Invocation(1, "B") == early and not early < Invocation(1, "B")

    @given(arrival_lists, arrival_lists, st.sampled_from([0.0, 0.25, 3.0]))
    def test_derived_traces_come_out_ordered(self, left, right, offset_s):
        a, b = Trace(self.FUNCTIONS, left), Trace(self.FUNCTIONS, right)
        for derived in (
            a.merged_with(b), a.shifted(offset_s), a.truncated(1.0), a.restrict("AB"),
        ):
            assert list(derived.invocations) == sorted(derived.invocations)
        assert same_objects(a.merged_with(b).invocations, sorted(left + right))

    @given(arrival_lists)
    def test_json_round_trip_keeps_the_order(self, invocations):
        trace = Trace(self.FUNCTIONS, invocations)
        # Not tmp_path: a function-scoped fixture is shared by every example.
        with tempfile.TemporaryDirectory() as tmp:
            save_trace_json(trace, f"{tmp}/trace.json")
            loaded = load_trace_json(f"{tmp}/trace.json")
        assert loaded.invocations == trace.invocations
