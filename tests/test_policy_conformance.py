"""Conformance battery: every registered policy honours the contract.

Any policy in the registry — including ones added later — must uphold
the invariants the pool and simulator depend on. Each case runs
against every policy, constructing parametric ones (oracles,
doorkeeper) through the appropriate factory.
"""

import pytest

from repro.core.policies import (
    EXTENDED_POLICIES,
    PAPER_POLICIES,
    available_policies,
    create_policy,
)
from repro.core.pool import ContainerPool
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction
from tests.conftest import make_container, make_function, make_trace

ALL_SIMPLE = list(PAPER_POLICIES) + list(EXTENDED_POLICIES)
ALL_NAMES = ALL_SIMPLE + ["ORACLE", "ORACLE-CS", "DOORKEEPER"]


def build_policy(name, trace):
    if name.startswith("ORACLE"):
        return create_policy(name, trace=trace)
    if name == "DOORKEEPER":
        return create_policy(name, inner="GD")
    return create_policy(name)


@pytest.fixture(scope="module")
def battery_trace():
    return make_trace("ABCDBCADACBDDBCA" * 8, gap_s=3.0)


class TestRegistryCompleteness:
    def test_every_lineup_name_is_registered(self):
        registered = set(available_policies())
        for name in ALL_NAMES:
            assert name in registered, name


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPolicyContract:
    def test_select_victims_no_pressure_returns_empty(
        self, name, battery_trace
    ):
        policy = build_policy(name, battery_trace)
        pool = ContainerPool(10_000.0)
        assert policy.select_victims(pool, 100.0, 0.0) == []

    def test_select_victims_unsatisfiable_returns_none(
        self, name, battery_trace
    ):
        policy = build_policy(name, battery_trace)
        pool = ContainerPool(200.0)
        f = make_function("A", memory_mb=200.0)
        c = make_container(f, 0.0)
        pool.add(c)
        c.start_invocation(0.0, 100.0)
        policy.on_invocation(f, 0.0)
        assert policy.select_victims(pool, 200.0, 1.0) is None

    def test_victims_are_idle_pool_members(self, name, battery_trace):
        policy = build_policy(name, battery_trace)
        pool = ContainerPool(400.0)
        containers = []
        for i, fname in enumerate("ABCD"):
            f = make_function(fname, memory_mb=100.0)
            policy.on_invocation(f, float(i))
            c = make_container(f, float(i))
            pool.add(c)
            policy.on_cold_start(c, float(i), pool)
            containers.append(c)
        containers[0].start_invocation(10.0, 100.0)  # running: untouchable
        victims = policy.select_victims(pool, 250.0, 11.0)
        assert victims is not None
        assert len(set(v.container_id for v in victims)) == len(victims)
        for v in victims:
            assert v in pool
            assert v.is_idle
        assert sum(v.memory_mb for v in victims) >= 250.0 - pool.free_mb - 1e-9

    def test_full_replay_conserves_requests(self, name, battery_trace):
        policy = build_policy(name, battery_trace)
        sim = KeepAliveSimulator(battery_trace, policy, 700.0)
        result = sim.run()
        m = result.metrics
        assert m.warm_starts + m.cold_starts + m.dropped == len(battery_trace)
        assert m.actual_exec_time_s >= m.ideal_exec_time_s - 1e-9
        assert sim.pool.used_mb <= sim.pool.capacity_mb + 1e-9

    def test_reset_allows_reuse(self, name, battery_trace):
        policy = build_policy(name, battery_trace)
        first = KeepAliveSimulator(battery_trace, policy, 700.0).run().metrics
        policy.reset()
        second = KeepAliveSimulator(battery_trace, policy, 700.0).run().metrics
        assert first.summary() == second.summary()

    def test_abundant_memory_only_compulsory_misses(self, name, battery_trace):
        """With infinite memory and spaced arrivals, the only cold
        starts are compulsory — except for policies that expire or
        reject by design (TTL/HIST/DOORKEEPER)."""
        policy = build_policy(name, battery_trace)
        metrics = KeepAliveSimulator(
            battery_trace, policy, 1e9
        ).run().metrics
        unique = battery_trace.num_functions
        if name in ("TTL", "HIST", "DOORKEEPER"):
            assert metrics.cold_starts >= unique
        else:
            assert metrics.cold_starts == unique
        assert metrics.dropped == 0
