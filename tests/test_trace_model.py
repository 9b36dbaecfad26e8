"""Unit tests for the trace data model."""

import math
import pickle
import random
import re
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


class TestInvocationContract:
    """``Invocation`` is the tuple ``(time_s, function_name)`` with a
    checked time: what the frozen dataclass it replaced promised, at a
    tuple's cost."""

    @pytest.mark.parametrize("time_s", [math.nan, math.inf, -math.inf, -1])
    @pytest.mark.parametrize("keywords", [False, True])
    def test_refuses_a_time_outside_its_domain(self, time_s, keywords):
        message = f"invocation time must be finite and >= 0, got {time_s}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if keywords:
                Invocation(time_s=time_s, function_name="f")
            else:
                Invocation(time_s, "f")

    def test_replace_keeps_the_check(self):
        assert Invocation(1.0, "f")._replace(time_s=2.0) == Invocation(2.0, "f")
        with pytest.raises(ValueError, match="finite and >= 0"):
            Invocation(1.0, "f")._replace(time_s=math.nan)

    @pytest.mark.parametrize("field", ["time_s", "function_name", "other"])
    def test_immutable(self, field):
        inv = Invocation(1.0, "f")
        with pytest.raises(AttributeError):
            setattr(inv, field, 2.0)
        assert not hasattr(inv, "__dict__")

    def test_sorted_orders_by_time_then_name(self):
        arrivals = [Invocation(2.0, "a"), Invocation(1.0, "c"), Invocation(1.0, "b")]
        assert sorted(arrivals) == [
            Invocation(1.0, "b"), Invocation(1.0, "c"), Invocation(2.0, "a"),
        ]

    def test_equals_and_hashes_as_its_plain_tuple(self):
        inv = Invocation(time_s=1.5, function_name="f")
        assert inv == Invocation(1.5, "f") == (1.5, "f")
        assert hash(inv) == hash((1.5, "f"))
        assert len({inv, Invocation(1.5, "f"), Invocation(1.5, "g")}) == 2
        assert (inv.time_s, inv.function_name) == tuple(inv)

    def test_pickle_round_trip(self):
        inv = Invocation(0.1 + 0.2, "f")
        back = pickle.loads(pickle.dumps(inv))
        assert type(back) is Invocation and back == inv

    def test_repr(self):
        assert repr(Invocation(1.5, "f")) == "Invocation(time_s=1.5, function_name='f')"


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

    def test_a_pickle_carries_the_columns_not_the_objects(self):
        trace = make_trace("ABCAB" * 20)
        columns_only = len(pickle.dumps(trace))
        trace.invocations  # built and kept
        assert len(pickle.dumps(trace)) == columns_only
        back = pickle.loads(pickle.dumps(trace))
        assert back.invocations == trace.invocations
        assert back.functions == trace.functions and back.name == trace.name


#: Few distinct times (an int among the floats: ``1 == 1.0``) and few
#: names, so a drawn list is full of repeated times and repeated
#: ``(time, name)`` pairs — where a sort's stability shows.
arrival_lists = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1, 1.0, 2.25, 7.0]), st.sampled_from("ABC"))
).map(lambda pairs: [Invocation(t, name) for t, name in pairs])


class TestReplayOrder:
    """``Trace`` keeps its arrivals as columns in canonical order, checked
    in one pass and sorted only where the check fails; the invocations it
    builds back must equal ``sorted()`` over ``Invocation.__lt__`` (the
    ``(time_s, function_name)`` tuple comparison). The columns hold float times,
    so an int time comes back as the equal float."""

    FUNCTIONS = [make_function(name) for name in "ABC"]

    @given(arrival_lists)
    def test_constructor_order_is_sorted_order(self, invocations):
        ordered = Trace(self.FUNCTIONS, invocations).invocations
        assert list(ordered) == sorted(invocations)
        assert list(ordered) == sorted(
            invocations, key=lambda i: (i.time_s, i.function_name)
        )
        assert all(type(inv.time_s) is float for inv in ordered)

    @given(arrival_lists)
    def test_columns_in_any_order_come_out_in_constructor_order(self, invocations):
        ids = {f.name: i for i, f in enumerate(self.FUNCTIONS)}
        columns = Trace.from_columns(
            self.FUNCTIONS,
            [inv.time_s for inv in invocations],
            [ids[inv.function_name] for inv in invocations],
        )
        objects = Trace(self.FUNCTIONS, invocations)
        assert columns.invocations == objects.invocations
        assert columns.function_ids.tobytes() == objects.function_ids.tobytes()

    def test_shuffled_objects_build_the_columns_from_columns_builds(self):
        """On columns full of equal-time ties (each time three to five
        times, names drawn with repeats), ``Trace(functions, objects)`` in
        any order holds the bytes ``Trace.from_columns`` holds."""
        rng = random.Random(49)
        functions = [make_function(f"f{i:02d}") for i in range(12)]
        times = [float(t) for t in range(200) for __ in range(rng.randint(3, 5))]
        ids = [rng.randrange(len(functions)) for __ in times]
        columns = Trace.from_columns(functions, times, ids)
        objects = [Invocation(t, functions[i].name) for t, i in zip(times, ids)]
        rng.shuffle(objects)
        built = Trace(functions, objects)
        assert built.times_s.tobytes() == columns.times_s.tobytes()
        assert built.function_ids.tobytes() == columns.function_ids.tobytes()
        assert built.invocations == tuple(sorted(objects))

    def test_comparison_operators_are_the_dataclass_ones(self):
        early, late = Invocation(1.0, "B"), Invocation(1.0, "C")
        assert early < late and late > early and early <= late and late >= early
        assert Invocation(1, "B") == early and not early < Invocation(1, "B")

    @given(arrival_lists, st.sampled_from([0.0, 0.25, 3.0]))
    def test_derived_traces_come_out_ordered(self, left, offset_s):
        a = Trace(self.FUNCTIONS, left)
        for derived in (a.shifted(offset_s), a.truncated(1.0), a.restrict("AB")):
            assert list(derived.invocations) == sorted(derived.invocations)

    @given(arrival_lists)
    def test_json_round_trip_keeps_the_order(self, invocations):
        trace = Trace(self.FUNCTIONS, invocations)
        # Not tmp_path: a function-scoped fixture is shared by every example.
        with tempfile.TemporaryDirectory() as tmp:
            save_trace_json(trace, f"{tmp}/trace.json")
            loaded = load_trace_json(f"{tmp}/trace.json")
        assert loaded.invocations == trace.invocations
