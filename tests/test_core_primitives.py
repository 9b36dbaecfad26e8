"""Unit tests for the core primitives: clock, container, function stats."""

import pytest

from repro.core.clock import LogicalClock
from repro.core.container import ContainerState
from repro.core.function import FunctionStats, FunctionStatsTable
from repro.core.policies import create_policy
from repro.sim.scheduler import KeepAliveSimulator
from tests.conftest import make_container, make_function, make_trace


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().value == 0.0

    def test_advance_forward(self):
        clock = LogicalClock()
        clock.advance_to(3.5)
        assert clock.value == 3.5

    def test_never_moves_backwards(self):
        clock = LogicalClock(initial=10.0)
        clock.advance_to(5.0)
        assert clock.value == 10.0

    def test_reset(self):
        clock = LogicalClock(initial=10.0)
        clock.reset()
        assert clock.value == 0.0

    def test_monotone_under_mixed_updates(self):
        clock = LogicalClock()
        values = [1.0, 0.5, 2.0, 1.5, 3.0]
        seen = []
        for v in values:
            clock.advance_to(v)
            seen.append(clock.value)
        assert seen == sorted(seen)


class TestContainer:
    def test_new_container_is_warm(self):
        c = make_container(make_function(), created_at_s=5.0)
        assert c.state == ContainerState.WARM
        assert c.is_idle
        assert not c.is_running

    def test_unique_ids(self):
        """A run numbers its containers from 0 in creation order, however
        many containers earlier runs in the process built."""
        trace = make_trace("ABCA", gap_s=0.5)
        for __ in range(2):
            sim = KeepAliveSimulator(trace, create_policy("LRU"), 4096.0)
            sim.run()
            assert [c.container_id for c in sim.pool.all_containers()] == [0, 1, 2, 3]

    def test_start_and_finish_invocation(self):
        c = make_container(make_function(), 0.0)
        c.start_invocation(10.0, duration_s=3.0)
        assert c.is_running
        assert c.busy_until_s == pytest.approx(13.0)
        assert c.invocation_count == 1
        c.finish_invocation(13.0)
        assert c.is_idle
        assert c.last_used_s == pytest.approx(13.0)

    def test_cannot_start_while_running(self):
        c = make_container(make_function(), 0.0)
        c.start_invocation(0.0, 5.0)
        with pytest.raises(RuntimeError):
            c.start_invocation(1.0, 5.0)

    def test_cannot_finish_idle(self):
        c = make_container(make_function(), 0.0)
        with pytest.raises(RuntimeError):
            c.finish_invocation(1.0)

    def test_cannot_terminate_running(self):
        c = make_container(make_function(), 0.0)
        c.start_invocation(0.0, 5.0)
        with pytest.raises(RuntimeError):
            c.terminate()

    def test_terminate_idle(self):
        c = make_container(make_function(), 0.0)
        c.terminate()
        assert c.state == ContainerState.DEAD

    def test_cannot_start_after_termination(self):
        c = make_container(make_function(), 0.0)
        c.terminate()
        with pytest.raises(RuntimeError):
            c.start_invocation(1.0, 1.0)

    def test_idle_time(self):
        c = make_container(make_function(), 0.0)
        c.start_invocation(0.0, 2.0)
        c.finish_invocation(2.0)
        assert c.idle_time_s(10.0) == pytest.approx(8.0)

    def test_memory_comes_from_function(self):
        c = make_container(make_function(memory_mb=333.0), 0.0)
        assert c.memory_mb == 333.0


class TestFunctionStats:
    def test_cold_observation_sets_worst_case(self):
        s = FunctionStats("f")
        s.observe_cold(4.0)
        assert s.cold_time_s == 4.0
        assert s.init_time_s == 4.0  # worst case until a warm run
        s.observe_cold(6.0)
        assert s.cold_time_s == 6.0
        s.observe_cold(5.0)
        assert s.cold_time_s == 6.0  # keeps the max

    def test_init_time_after_warm_observation(self):
        s = FunctionStats("f")
        s.observe_cold(5.0)
        s.observe_warm(2.0)
        assert s.init_time_s == pytest.approx(3.0)

    def test_warm_smoothing(self):
        s = FunctionStats("f")
        s.observe_warm(1.0)
        s.observe_warm(2.0)
        assert 1.0 < s.warm_time_s < 2.0

    def test_init_time_never_negative(self):
        s = FunctionStats("f")
        s.observe_cold(1.0)
        s.observe_warm(5.0)
        assert s.init_time_s == 0.0

    def test_init_time_without_observations(self):
        assert FunctionStats("f").init_time_s == 0.0


class TestFunctionStatsTable:
    def test_get_creates_on_first_use(self):
        table = FunctionStatsTable()
        assert "f" not in table
        stats = table.get("f")
        assert stats.name == "f"
        assert "f" in table
        assert table.get("f") is stats

    def test_len_and_reset(self):
        table = FunctionStatsTable()
        table.get("a")
        table.get("b")
        assert len(table) == 2
        table.reset()
        assert len(table) == 0

    def test_items(self):
        table = FunctionStatsTable()
        table.get("a")
        assert dict(table.items())["a"].name == "a"
