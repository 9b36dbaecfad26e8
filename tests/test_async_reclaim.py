"""Tests for the kswapd-style asynchronous background reclaim."""

import pytest

from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.loadgen import faascache_invoker
from repro.traces.model import Trace
from repro.traces.synth import cyclic_trace
from tests.conftest import make_function


FUNCTIONS = [make_function(f"f{i}", memory_mb=100.0) for i in range(5)]


def make_invoker(capacity, threshold, async_reclaim=True, **kwargs):
    """A FaasCache invoker whose engine is built over ``FUNCTIONS``
    (a run with no arrivals), for the tests to drive by hand."""
    invoker = faascache_invoker(
        InvokerConfig(
            memory_mb=capacity, free_threshold_mb=threshold,
            async_reclaim=async_reclaim, **kwargs,
        )
    )
    invoker.run(Trace(FUNCTIONS, []))
    return invoker


def fill_with_idle(invoker, count):
    """``count`` cold starts through the engine's own arrival path, all
    released by t = count + 3 (3 s cold starts, 1 s apart)."""
    sim = invoker.simulator
    for i in range(count):
        assert sim.process_invocation(FUNCTIONS[i], float(i)) == "cold"
    sim.housekeeping(float(count + 3))
    return sim


class TestMaintain:
    def test_reclaims_to_threshold(self):
        invoker = make_invoker(capacity=500.0, threshold=200.0)
        sim = fill_with_idle(invoker, 5)
        assert sim.pool.free_mb == pytest.approx(0.0)
        invoker.reclaim(10.0)
        assert sim.pool.free_mb >= 200.0
        assert invoker.background_evictions == 2
        assert sim.metrics.evictions == 2  # on the engine's books

    def test_noop_without_async_flag(self):
        invoker = make_invoker(capacity=500.0, threshold=200.0, async_reclaim=False)
        sim = fill_with_idle(invoker, 4)
        free_before = sim.pool.free_mb
        invoker.reclaim(10.0)
        assert sim.pool.free_mb == pytest.approx(free_before)
        assert invoker.background_evictions == 0

    def test_noop_without_threshold(self):
        # Background reclaim toward a zero threshold would never run.
        with pytest.raises(ValueError, match="free threshold"):
            InvokerConfig(memory_mb=500.0, free_threshold_mb=0.0, async_reclaim=True)

    def test_background_evictions_charge_no_latency(self):
        invoker = make_invoker(
            capacity=500.0,
            threshold=200.0,
            eviction_event_latency_s=1.0,
            eviction_per_container_s=1.0,
        )
        fill_with_idle(invoker, 5)
        invoker.reclaim(10.0)
        # The next cold start finds its room free: no stall to pay.
        g = make_function("g", memory_mb=100.0)
        assert invoker._make_room(g, 10.0) == 0.0
        assert invoker.eviction_events == 0

    def test_running_containers_not_reclaimed(self):
        invoker = make_invoker(capacity=300.0, threshold=300.0)
        sim = fill_with_idle(invoker, 3)
        for function in FUNCTIONS[:3]:  # warm starts, busy until 21 s
            assert sim.process_invocation(function, 20.0) == "warm"
        invoker.reclaim(20.5)
        assert invoker.background_evictions == 0

    def test_sync_eviction_skips_batching_under_async(self):
        invoker = make_invoker(capacity=300.0, threshold=300.0)
        sim = fill_with_idle(invoker, 3)
        # A synchronous miss needing 100 MB should evict exactly one
        # container (no batch-to-threshold on the fast path).
        g = make_function("g", memory_mb=100.0)
        assert invoker._make_room(g, 50.0) is not None
        assert sim.metrics.evictions == 1


class TestInvokerIntegration:
    def test_async_reclaim_reduces_cold_latency(self):
        """With background reclaim sized to one container, cold starts
        stop paying the eviction slow path: with uniform container
        sizes (so hit behaviour is identical in both modes), every
        eviction-bound cold start gets cheaper."""
        trace = cyclic_trace(
            num_functions=12,
            cycle_gap_s=2.0,
            num_cycles=80,
            memory_choices_mb=(256.0,),
            init_choices_s=(2.0,),
        )
        base = dict(
            memory_mb=1664.0,
            cpu_cores=8,
            free_threshold_mb=256.0,
            eviction_event_latency_s=1.0,
            eviction_per_container_s=0.5,
        )
        sync = SimulatedInvoker(InvokerConfig(**base), policy="GD").run(trace)
        async_ = SimulatedInvoker(
            InvokerConfig(**base, async_reclaim=True), policy="GD"
        ).run(trace)
        assert async_.cold_starts == sync.cold_starts
        assert async_.mean_latency_s() < sync.mean_latency_s() - 0.5

    def test_async_reclaim_counts_background_evictions(self):
        trace = cyclic_trace(num_functions=12, cycle_gap_s=2.0, num_cycles=40)
        invoker = SimulatedInvoker(
            InvokerConfig(
                memory_mb=1664.0,
                cpu_cores=8,
                free_threshold_mb=256.0,
                async_reclaim=True,
            ),
            policy="GD",
        )
        invoker.run(trace)
        assert invoker.background_evictions > 0
