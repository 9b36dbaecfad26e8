"""Pinned (provisioned-concurrency) containers across every policy.

Regression suite for the crash where a doorkeeper's admission gate
tried to release a *pinned* container after its invocation finished:
``should_retain`` returned False and the scheduler called
``pool.evict`` on reserved capacity, which rightly raises. Pinned
containers are retained by definition — the admission gate, victim
selection, and time-based expiry must all skip them.
"""

import pytest

from repro.core.policies import (
    EXTENDED_POLICIES,
    PAPER_POLICIES,
    create_policy,
)
from repro.core.pool import ContainerPool
from repro.sim.scheduler import KeepAliveSimulator, simulate
from tests.conftest import make_container, make_function, make_trace

ALL_SIMPLE = list(PAPER_POLICIES) + list(EXTENDED_POLICIES)
ALL_NAMES = ALL_SIMPLE + ["ORACLE", "ORACLE-CS", "DOORKEEPER"]


def build_policy(name, trace):
    if name.startswith("ORACLE"):
        return create_policy(name, trace=trace)
    if name == "DOORKEEPER":
        return create_policy(name, inner="GD")
    return create_policy(name)


@pytest.fixture
def pressure_trace():
    # Enough distinct functions and repetitions that a small pool
    # exercises victim selection, admission, and (for TTL/HIST) expiry.
    return make_trace("ABCDBCADACBDDBCA" * 6, gap_s=5.0)


class TestDoorkeeperRegression:
    def test_reserved_concurrency_completes(self, pressure_trace):
        """The original crash: DOORKEEPER rejects function A's retention
        while A has a pinned container — the gate used to evict it."""
        policy = create_policy("DOORKEEPER", inner="GD", admission_threshold=3)
        sim = KeepAliveSimulator(
            pressure_trace,
            policy,
            memory_mb=1024.0,
            reserved_concurrency={"A": 1},
        )
        result = sim.run()  # must not raise "container ... is pinned"
        assert result.metrics.served > 0

    def test_unproven_pinned_function_stays_resident(self):
        """Even a function the doorkeeper would never admit keeps its
        pinned container: reservation outranks admission."""
        trace = make_trace("ABBBBBBB", gap_s=5.0)
        policy = create_policy(
            "DOORKEEPER", inner="GD", admission_threshold=100
        )
        sim = KeepAliveSimulator(
            trace, policy, memory_mb=1024.0, reserved_concurrency={"A": 1}
        )
        sim.run()
        survivors = [c for c in sim.pool.all_containers() if c.pinned]
        assert len(survivors) == 1
        assert survivors[0].function.name == "A"

    def test_unpinned_rejections_still_work(self, pressure_trace):
        policy = create_policy("DOORKEEPER", inner="GD", admission_threshold=3)
        sim = KeepAliveSimulator(
            pressure_trace,
            policy,
            memory_mb=2048.0,
            reserved_concurrency={"A": 1},
        )
        sim.run()
        # Non-reserved functions below the threshold were still bounced.
        assert policy.rejections > 0


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPinnedAcrossPolicies:
    def test_run_completes_and_pinned_survive(self, name, pressure_trace):
        policy = build_policy(name, pressure_trace)
        sim = KeepAliveSimulator(
            pressure_trace,
            policy,
            # Tight: B+C+D alone overflow it, so victim selection runs
            # constantly around the 256 MB pinned reservation.
            memory_mb=700.0,
            reserved_concurrency={"A": 1},
        )
        result = sim.run()
        assert result.metrics.served + result.metrics.dropped == len(
            pressure_trace
        )
        pinned = [c for c in sim.pool.all_containers() if c.pinned]
        assert len(pinned) == 1
        assert pinned[0].function.name == "A"

    def test_pinned_serves_warm_starts(self, name):
        trace = make_trace("AAAA", gap_s=10.0)
        policy = build_policy(name, trace)
        sim = KeepAliveSimulator(
            trace, policy, memory_mb=1024.0, reserved_concurrency={"A": 1}
        )
        result = sim.run()
        # The reservation exists from t=0, so even the first call hits.
        assert result.metrics.cold_starts == 0
        assert result.metrics.warm_starts == len(trace)

    def test_select_victims_never_returns_pinned(self, name, pressure_trace):
        policy = build_policy(name, pressure_trace)
        pool = ContainerPool(400.0)
        f_pinned = make_function("P", memory_mb=100.0)
        pinned = make_container(f_pinned, 0.0)
        pinned.pinned = True
        pool.add(pinned)
        for i, fname in enumerate("ABC"):
            f = make_function(fname, memory_mb=100.0)
            policy.on_invocation(f, float(i))
            c = make_container(f, float(i))
            pool.add(c)
            policy.on_cold_start(c, float(i), pool)
        # Fully reclaimable memory is 300 MB; asking for more must fail
        # rather than touch the reservation.
        assert policy.select_victims(pool, 350.0, 10.0) is None
        victims = policy.select_victims(pool, 250.0, 10.0)
        assert victims is not None
        assert pinned not in victims


class TestPinnedMechanics:
    def test_expiry_skips_pinned(self):
        """TTL expiry goes through idle_containers(), which must not
        offer the reservation."""
        trace = make_trace("AB" + "B" * 30, gap_s=60.0)
        policy = create_policy("TTL", ttl_s=120.0)
        sim = KeepAliveSimulator(
            trace, policy, memory_mb=1024.0, reserved_concurrency={"A": 1}
        )
        sim.run()
        pinned = [c for c in sim.pool.all_containers() if c.pinned]
        assert len(pinned) == 1  # outlived many TTL windows

    def test_pool_refuses_to_evict_pinned(self):
        pool = ContainerPool(512.0)
        container = make_container(make_function("A"), 0.0)
        container.pinned = True
        pool.add(container)
        with pytest.raises(ValueError, match="pinned"):
            pool.evict(container)

    def test_pinned_not_counted_evictable(self):
        pool = ContainerPool(512.0)
        container = make_container(make_function("A", memory_mb=256.0), 0.0)
        container.pinned = True
        pool.add(container)
        assert pool.evictable_mb() == 0.0
        assert pool.idle_containers() == []

    def test_simulate_forwards_reserved_concurrency(self):
        trace = make_trace("AAA", gap_s=10.0)
        result = simulate(
            trace, "GD", 1024.0, reserved_concurrency={"A": 1}
        )
        assert result.metrics.cold_starts == 0

    def test_reserved_unknown_function_rejected(self):
        trace = make_trace("A", gap_s=10.0)
        with pytest.raises(ValueError, match="not in trace"):
            simulate(trace, "GD", 1024.0, reserved_concurrency={"Z": 1})
