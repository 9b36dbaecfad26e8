"""Tests for the concurrency-analysis (caching-correction) toolkit."""

import pytest

from repro.analysis.concurrency import (
    concurrency_headroom_mb,
    concurrency_profile,
    working_set_mb,
)
from repro.provisioning.analytical import models_from_trace
from repro.traces.model import Invocation, Trace, TraceFunction
from tests.conftest import make_function, make_trace


def overlap_trace():
    """A: three overlapping invocations; B: strictly sequential."""
    a = TraceFunction("A", 100.0, warm_time_s=10.0, cold_time_s=12.0)
    b = TraceFunction("B", 200.0, warm_time_s=1.0, cold_time_s=2.0)
    invocations = [
        Invocation(0.0, "A"),
        Invocation(2.0, "A"),
        Invocation(4.0, "A"),
        Invocation(0.0, "B"),
        Invocation(50.0, "B"),
    ]
    return Trace([a, b], invocations)


class TestConcurrencyProfile:
    def test_overlap_counted(self):
        profile = concurrency_profile(overlap_trace())
        assert profile["A"] == 3
        assert profile["B"] == 1

    def test_back_to_back_is_not_concurrency(self):
        f = TraceFunction("A", 100.0, warm_time_s=5.0, cold_time_s=6.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(5.0, "A")])
        assert concurrency_profile(trace)["A"] == 1

    def test_cold_time_bound_is_larger(self):
        f = TraceFunction("A", 100.0, warm_time_s=1.0, cold_time_s=10.0)
        trace = Trace([f], [Invocation(0.0, "A"), Invocation(2.0, "A")])
        assert concurrency_profile(trace)["A"] == 1
        assert concurrency_profile(trace, use_cold_time=True)["A"] == 2

    def test_never_invoked_function_is_zero(self):
        f = make_function("A")
        g = make_function("B")
        trace = Trace([f, g], [Invocation(0.0, "A")])
        assert concurrency_profile(trace)["B"] == 0

    def test_empty_trace(self):
        trace = Trace([make_function("A")], [])
        assert concurrency_headroom_mb(trace) == 0.0


class TestHeadroom:
    def test_headroom_formula(self):
        # A peaks at 3 -> 2 extra containers x 100 MB.
        assert concurrency_headroom_mb(overlap_trace()) == pytest.approx(200.0)

    def test_sequential_trace_needs_no_headroom(self):
        trace = make_trace("ABCABC", gap_s=100.0)
        assert concurrency_headroom_mb(trace) == 0.0

    def test_working_set_counts_invoked_functions_once(self):
        trace = overlap_trace()
        assert working_set_mb(trace) == pytest.approx(300.0)

    def test_headroom_eliminates_concurrency_cold_starts(self):
        """Provisioning working set + headroom lets GD avoid every
        non-compulsory cold start on a concurrency-heavy trace."""
        from repro.sim.scheduler import simulate

        f = TraceFunction("A", 100.0, warm_time_s=10.0, cold_time_s=11.0)
        g = TraceFunction("B", 300.0, warm_time_s=10.0, cold_time_s=11.0)
        invocations = []
        for round_ in range(10):
            base = round_ * 40.0
            invocations += [
                Invocation(base, "A"),
                Invocation(base + 1.0, "A"),
                Invocation(base + 2.0, "B"),
                Invocation(base + 3.0, "B"),
            ]
        trace = Trace([f, g], invocations)
        size = working_set_mb(trace) + concurrency_headroom_mb(trace)
        metrics = simulate(trace, "GD", size).metrics
        # Compulsory misses: one per *container* needed, i.e. the
        # summed concurrency profile.
        profile = concurrency_profile(trace)
        assert metrics.cold_starts == sum(profile.values())
        assert metrics.dropped == 0
        # One MB less and the concurrency demand cannot be met warm.
        tight = simulate(trace, "GD", size - 100.0).metrics
        assert tight.cold_starts > metrics.cold_starts or tight.dropped > 0


class CountingTrace(Trace):
    """Counts registry copies: ``Trace.functions`` builds a fresh dict
    on every read (``test_functions_returns_copy`` pins that), so a
    read per invocation is O(invocations x functions)."""

    copies = 0

    @property
    def functions(self):
        self.copies += 1
        return super().functions


class TestRegistryCopies:
    """``concurrency_profile`` on a 100k-arrival, 1,620-function trace
    spent 1.45 of its 1.46 s copying the registry, once per arrival.
    Counted, not timed: the copies may not grow with the trace."""

    @pytest.fixture
    def trace(self):
        functions = [make_function(f"f{i:02d}") for i in range(40)]
        invocations = [
            Invocation(float(t), function.name)
            for t in range(25) for function in functions
        ]
        return CountingTrace(functions, invocations)

    @pytest.mark.parametrize("analysis, allowed", [
        (concurrency_profile, 1),  # the zero-filled result, once
        (concurrency_headroom_mb, 1),
        (working_set_mb, 0),
        (models_from_trace, 0),
    ])
    def test_copies_do_not_grow_with_the_trace(self, trace, analysis, allowed):
        analysis(trace)
        assert trace.copies <= allowed
