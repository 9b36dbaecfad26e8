"""Harvested/spot capacity: timelines, graceful deflation, draining.

Covers the time-varying-resources subsystem end to end
(docs/robustness.md):

* :class:`repro.faults.FaultModel` capacity timelines — explicit
  shrink/grow steps, seeded rate-based harvest streams, spot evictions
  with a notice window, and the merged per-server event schedule;
* :meth:`repro.core.pool.ContainerPool.deflate_to` — victim-order
  eviction through the lazy index, deferral while busy containers hold
  the memory, resumption as they finish, tenant-mode interactions;
* the quota branch of tenant victim selection running through
  ``iter_victims`` with no materialized sort (regression for the
  thousands-of-tenants scaling bottleneck);
* load-balancer draining semantics and the min-worker-set /
  join-shortest-queue policies;
* cross-``PYTHONHASHSEED`` subprocess determinism of a harvested
  replay.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cluster.loadbalancer import (
    NoHealthyServers,
    create_balancer,
)
from repro.bench import churn_trace
from repro.cluster.simulation import ClusterSimulator, _server_level_spec
from repro.core.container import Container
from repro.core.policies.base import available_policies, create_policy
from repro.core.pool import CapacityError, ContainerPool
from repro.faults import CapacityStep, FaultModel, FaultSpec
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.sim.scheduler import KeepAliveSimulator, simulate
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import harvest_day_trace
from tests.test_spec_machine import replay_both

REPO = pathlib.Path(__file__).resolve().parents[1]


def make_function(name, memory_mb=100.0, tenant_id=0):
    return TraceFunction(name, memory_mb, 0.1, 1.0, tenant_id=tenant_id)


def _key_of(container):
    return (0.0, container.last_used_s, container.container_id)


# ----------------------------------------------------------------------
# Fault-model capacity timelines
# ----------------------------------------------------------------------


class TestCapacityTimeline:
    def test_explicit_steps_filtered_and_sorted(self):
        spec = FaultSpec(
            capacity_steps=(
                CapacityStep(server=1, time_s=50.0, capacity_frac=0.5),
                CapacityStep(server=0, time_s=30.0, capacity_frac=0.8),
                CapacityStep(server=0, time_s=10.0, capacity_frac=0.6),
            )
        )
        model = FaultModel(spec)
        assert model.capacity_timeline(0, 100.0) == [
            (10.0, 0.6),
            (30.0, 0.8),
        ]
        assert model.capacity_timeline(1, 100.0) == [(50.0, 0.5)]
        assert model.capacity_timeline(2, 100.0) == []
        # Steps beyond the horizon are dropped.
        assert model.capacity_timeline(1, 40.0) == []

    def test_rate_based_stream_is_deterministic_and_per_server(self):
        spec = FaultSpec(seed=9, harvest_interval_s=100.0)
        a = FaultModel(spec).capacity_timeline(0, 5000.0)
        b = FaultModel(spec).capacity_timeline(0, 5000.0)
        assert a == b
        assert a  # the stream actually produced events
        other = FaultModel(spec).capacity_timeline(1, 5000.0)
        assert a != other  # per-server derived seeds
        for __, frac in a:
            assert spec.harvest_min_frac <= frac <= spec.harvest_max_frac

    def test_disabled_spec_has_no_capacity_events(self):
        spec = FaultSpec(seed=3)
        assert not spec.enabled
        model = FaultModel(spec)
        assert model.capacity_timeline(0, 10_000.0) == []
        assert model.spot_evictions(0, 10_000.0) == []
        assert model.server_events([0], 10_000.0) == []

    def test_spot_notice_precedes_eviction(self):
        spec = FaultSpec(seed=5, spot_mtbf_s=500.0, spot_notice_s=60.0)
        pairs = FaultModel(spec).spot_evictions(0, 20_000.0)
        assert pairs
        for notice_s, evict_s in pairs:
            assert notice_s <= evict_s
            assert evict_s - notice_s <= 60.0 + 1e-9

    def test_server_capacity_events_tie_order_and_restore(self):
        spec = FaultSpec(
            seed=5,
            spot_mtbf_s=800.0,
            spot_notice_s=30.0,
            server_recovery_s=120.0,
        )
        events = [
            (at_s, kind, value)
            for at_s, __, kind, value in FaultModel(spec).server_events(
                [0], 20_000.0
            )
        ]
        kinds = [kind for __, kind, __v in events]
        assert "notice" in kinds and "evict" in kinds
        # Every evict is announced by an earlier notice carrying its
        # time, and followed by a restore exactly recovery later (when
        # inside the horizon).
        notice_targets = [
            value for __, kind, value in events if kind == "notice"
        ]
        restore_times = [
            at_s for at_s, kind, __v in events if kind == "restore"
        ]
        for at_s, kind, value in events:
            if kind == "notice":
                assert value >= at_s  # carries the eviction time
            if kind == "evict":
                assert at_s in notice_targets
                if at_s + 120.0 <= 20_000.0:
                    assert any(
                        r == pytest.approx(at_s + 120.0)
                        for r in restore_times
                    )
        times = [at_s for at_s, __, __v in events]
        assert times == sorted(times)

    def test_capacity_schedule_merges_servers_in_time_order(self):
        spec = FaultSpec(seed=2, harvest_interval_s=400.0)
        schedule = FaultModel(spec).server_events(range(3), 10_000.0)
        assert schedule
        times = [at_s for at_s, __, __k, __v in schedule]
        assert times == sorted(times)
        assert {server for __, server, __k, __v in schedule} <= {0, 1, 2}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(harvest_interval_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(harvest_interval_s=10.0, harvest_min_frac=0.0)
        with pytest.raises(ValueError):
            FaultSpec(
                harvest_interval_s=10.0,
                harvest_min_frac=0.9,
                harvest_max_frac=0.5,
            )
        with pytest.raises(ValueError):
            FaultSpec(spot_mtbf_s=-5.0)
        with pytest.raises(ValueError):
            CapacityStep(server=0, time_s=0.0, capacity_frac=1.5)

    def test_round_trip_through_dict(self):
        spec = FaultSpec(
            seed=11,
            harvest_interval_s=300.0,
            spot_mtbf_s=900.0,
            capacity_steps=(
                CapacityStep(server=0, time_s=60.0, capacity_frac=0.5),
            ),
        )
        clone = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.enabled


# ----------------------------------------------------------------------
# Graceful pool deflation
# ----------------------------------------------------------------------


class TestDeflateTo:
    def _pool_with_idle(self, count=5, memory_mb=100.0):
        pool = ContainerPool(count * memory_mb)
        containers = []
        for i in range(count):
            c = Container(make_function(f"f{i}", memory_mb), 0.0)
            c.last_used_s = float(i)  # victim order: f0 first
            pool.add(c)
            containers.append(c)
        return pool, containers

    def test_idle_eviction_in_victim_order(self):
        pool, containers = self._pool_with_idle()
        victims = pool.deflate_to(300.0, pool.iter_victims(_key_of))
        assert victims == containers[:2]
        assert pool.capacity_mb == 300.0
        assert pool.deflation_target_mb is None
        assert pool.deflation_deferred_mb == 0.0

    def test_set_capacity_contract_unchanged(self):
        pool, __ = self._pool_with_idle()
        with pytest.raises(CapacityError):
            pool.set_capacity(300.0)  # strict shrink still refuses

    def test_deflate_rejects_nonpositive_target(self):
        pool, __ = self._pool_with_idle()
        with pytest.raises(ValueError):
            pool.deflate_to(0.0, pool.iter_victims(_key_of))

    def test_busy_containers_defer_the_shrink(self):
        pool, containers = self._pool_with_idle()
        for c in containers:
            c.start_invocation(10.0, 100.0)  # all busy until t=110
        victims = pool.deflate_to(250.0, pool.iter_victims(_key_of))
        assert victims == []
        # No admissions while deferred: capacity clamps to what the
        # busy containers hold, and the shortfall is visible.
        assert pool.capacity_mb == pytest.approx(500.0)
        assert pool.deflation_target_mb == pytest.approx(250.0)
        assert pool.deflation_deferred_mb == pytest.approx(250.0)
        # Two containers finish: resumption frees exactly them.
        for c in containers[:2]:
            c.finish_invocation(110.0)
        resumed = pool.resume_deflation(pool.iter_victims(_key_of))
        assert resumed == containers[:2]
        assert pool.deflation_target_mb == pytest.approx(250.0)
        # The rest finish; the deflation settles at the target.
        for c in containers[2:]:
            c.finish_invocation(120.0)
        resumed = pool.resume_deflation(pool.iter_victims(_key_of))
        assert len(resumed) == 1
        assert pool.deflation_target_mb is None
        assert pool.capacity_mb == pytest.approx(250.0)

    def test_resume_without_pending_is_noop(self):
        pool, __ = self._pool_with_idle()
        assert pool.resume_deflation(pool.iter_victims(_key_of)) == []

    def test_growth_restores_partitioned_slices(self):
        limits = {1: 300.0, 2: 200.0}
        pool = ContainerPool(
            500.0, tenant_mode="partitioned", tenant_limits_mb=limits
        )
        pool.deflate_to(250.0, pool.iter_victims(_key_of))
        assert pool.tenant_limit_mb(1) == pytest.approx(150.0)
        assert pool.tenant_limit_mb(2) == pytest.approx(100.0)
        pool.deflate_to(500.0, pool.iter_victims(_key_of))  # grow back
        assert pool.tenant_limit_mb(1) == pytest.approx(300.0)
        assert pool.tenant_limit_mb(2) == pytest.approx(200.0)

    def test_quota_mode_deflates_over_quota_tenants_first(self):
        pool = ContainerPool(
            1000.0, tenant_mode="quota", tenant_limits_mb={1: 100.0, 2: 500.0}
        )
        hog = []
        for i in range(3):  # tenant 1 holds 300 MB against a 100 MB quota
            c = Container(make_function(f"hog{i}", 100.0, tenant_id=1), 0.0)
            c.last_used_s = 100.0 + i  # recently used: last in LRU order
            pool.add(c)
            hog.append(c)
        quiet = []
        for i in range(2):
            c = Container(make_function(f"quiet{i}", 100.0, tenant_id=2), 0.0)
            c.last_used_s = float(i)  # oldest — plain LRU would pick these
            pool.add(c)
            quiet.append(c)
        victims = pool.deflate_to(300.0, pool.iter_victims(_key_of))
        # The 200 MB deficit comes entirely out of the over-quota
        # tenant despite its containers being the most recently used.
        assert victims == hog[:2]
        assert all(c not in victims for c in quiet)

    def test_pinned_containers_never_deflate(self):
        pool = ContainerPool(200.0)
        pinned = Container(make_function("pinned", 100.0), 0.0)
        pinned.pinned = True
        pool.add(pinned)
        idle = Container(make_function("idle", 100.0), 0.0)
        pool.add(idle)
        victims = pool.deflate_to(50.0, pool.iter_victims(_key_of))
        assert victims == [idle]
        # The pinned container keeps the deflation deferred forever.
        assert pool.deflation_target_mb == pytest.approx(50.0)
        assert pool.deflation_deferred_mb == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Quota victim selection through the lazy index (no materialized sort)
# ----------------------------------------------------------------------


class TestQuotaSelectionIndexed:
    def _quota_pool(self):
        pool = ContainerPool(
            1000.0, tenant_mode="quota", tenant_limits_mb={1: 100.0, 2: 500.0}
        )
        for i in range(3):
            c = Container(make_function(f"hog{i}", 100.0, tenant_id=1), 0.0)
            c.last_used_s = 50.0 + i
            pool.add(c)
        for i in range(4):
            c = Container(make_function(f"q{i}", 100.0, tenant_id=2), 0.0)
            c.last_used_s = float(i)
            pool.add(c)
        return pool

    def test_monotone_quota_selection_never_materializes_idle_set(
        self, monkeypatch
    ):
        """Regression: the GD quota branch must walk the index
        (``victim_order`` -> ``iter_victims``); grabbing + sorting the
        idle set is the scaling bottleneck the lazy index exists to
        avoid."""
        pool = self._quota_pool()
        policy = create_policy("GD")
        assert policy.monotone_priority

        def boom():
            raise AssertionError(
                "quota selection materialized the idle set"
            )

        monkeypatch.setattr(pool, "idle_containers", boom)
        # 300 MB free + a 500 MB request: 200 MB deficit to reclaim.
        victims = policy.select_victims_tenant(pool, 500.0, 200.0, 2)
        assert victims is not None and len(victims) == 2
        # Over-quota tenant 1 is preferred despite higher recency.
        assert {c.function.tenant_id for c in victims} == {1}

    def test_monotone_shared_pressure_and_deflation_never_materialize(
        self, monkeypatch
    ):
        """The same guard for the shared pressure path and for shared
        deflation as the simulator drives them: a monotone policy's
        victim order is an index walk on every path."""
        functions = [make_function(f"f{i}", 100.0) for i in range(6)]
        trace = Trace(
            functions,
            [Invocation(10.0 * i, f.name) for i, f in enumerate(functions)],
        )
        sim = KeepAliveSimulator(trace, create_policy("GD"), 500.0)

        def boom():
            raise AssertionError("victim selection materialized the idle set")

        monkeypatch.setattr(sim.pool, "idle_containers", boom)
        result = sim.run()  # f5 arrives to a full pool: one eviction
        assert result.metrics.evictions == 1
        sim.set_harvest_capacity(100.0, 0.4)  # 500 -> 200 MB
        assert sim.metrics.deflations == 3
        assert sim.pool.capacity_mb == pytest.approx(200.0)

    def test_indexed_path_matches_forced_sort_path(self, monkeypatch):
        for needed, tenant in ((500.0, 2), (400.0, 2), (650.0, 1)):
            indexed_pool = self._quota_pool()
            sorted_pool = self._quota_pool()
            indexed_policy = create_policy("GD")
            sorted_policy = create_policy("GD")
            monkeypatch.setattr(
                type(sorted_policy), "monotone_priority", False
            )
            a = indexed_policy.select_victims_tenant(
                indexed_pool, needed, 100.0, tenant
            )
            b = sorted_policy.select_victims_tenant(
                sorted_pool, needed, 100.0, tenant
            )
            names = lambda vs: None if vs is None else [
                c.function.name for c in vs
            ]
            assert names(a) == names(b)


# ----------------------------------------------------------------------
# Load-balancer draining + the harvest-era policies
# ----------------------------------------------------------------------


class TestDrainingBalancers:
    @pytest.mark.parametrize(
        "name",
        [
            "random",
            "round-robin",
            "least-loaded",
            "hash-affinity",
            "affinity-spillover",
            "min-worker-set",
            "join-shortest-queue",
        ],
    )
    def test_draining_server_gets_no_new_placements(self, name):
        balancer = create_balancer(name, 3)
        balancer.mark_draining(1)
        used = [0.0, 0.0, 0.0]
        for i in range(60):
            assert balancer.route(f"fn-{i}", used) != 1

    def test_all_draining_raises(self):
        balancer = create_balancer("least-loaded", 2)
        balancer.mark_draining(0)
        balancer.mark_draining(1)
        with pytest.raises(NoHealthyServers):
            balancer.route("f", [0.0, 0.0])

    def test_mark_up_clears_draining(self):
        balancer = create_balancer("round-robin", 2)
        balancer.mark_draining(0)
        balancer.mark_up(0)
        assert balancer.draining_servers == set()
        assert 0 in {balancer.route("f", [0.0, 0.0]) for __ in range(4)}

    def test_min_worker_set_packs_lowest_index(self):
        balancer = create_balancer(
            "min-worker-set", 3, server_capacity_mb=1000.0,
            high_watermark=0.8,
        )
        assert balancer.route("f", [0.0, 0.0, 0.0]) == 0
        assert balancer.route("f", [500.0, 0.0, 0.0]) == 0
        # Server 0 over the watermark: the working set grows by one.
        assert balancer.route("f", [900.0, 0.0, 0.0]) == 1
        # Everyone saturated: least-loaded absorbs the overflow.
        assert balancer.route("f", [900.0, 950.0, 850.0]) == 2

    def test_join_shortest_queue_uses_queue_signal(self):
        balancer = create_balancer("join-shortest-queue", 3)
        assert balancer.load_signal == "queue"
        assert balancer.route("f", [2.0, 0.0, 1.0]) == 1
        assert balancer.route("f", [1.0, 1.0, 1.0]) == 0  # lowest index

    def test_draining_cluster_server_finishes_inflight_work(self):
        """Satellite contract: between notice and eviction a draining
        server receives no *new* placements but its in-flight
        invocations (incl. retries) still run on it."""
        functions = [make_function("only", 100.0)]
        invocations = [Invocation(float(t), "only") for t in range(200)]
        trace = Trace(functions, invocations, name="drain-probe")
        spec = FaultSpec(
            seed=1,
            capacity_steps=(),
            spot_mtbf_s=0.0,
        )
        sink = RingBufferSink(capacity=100_000)
        sim = ClusterSimulator(
            trace,
            "round-robin",
            num_servers=2,
            server_memory_mb=1024.0,
            tracer=Tracer(sink),
            fault_spec=None,
        )
        # Drive the notice by hand mid-run is awkward; instead mark the
        # balancer draining up front and replay: server 0 must never
        # appear in a routing decision, yet stays alive (no failure).
        sim.balancer.mark_draining(0)
        sim.run()
        routed = [
            e["server"] for e in sink if e["event"] == "invocation_routed"
        ]
        assert routed and all(server == 1 for server in routed)
        assert not sim.servers[0].is_down  # alive, just not placeable

    def test_spot_notice_stops_routing_before_eviction(self):
        trace = harvest_day_trace(duration_s=900.0)
        spec = FaultSpec(
            seed=21,
            capacity_steps=(
                CapacityStep(server=0, time_s=1e9, capacity_frac=1.0),
            ),
            spot_mtbf_s=0.0,
        )
        # Build a spec whose only capacity activity is a pinned
        # notice/evict pair on server 0 via explicit downtimes instead:
        # simplest deterministic probe is the model's own spot stream.
        spec = FaultSpec(seed=4, spot_mtbf_s=400.0, spot_notice_s=60.0)
        pairs = FaultModel(spec).spot_evictions(0, trace.duration_s)
        assert pairs, "seed must yield at least one eviction in-horizon"
        notice_s, evict_s = pairs[0]
        sink = RingBufferSink(capacity=1_000_000)
        ClusterSimulator(
            trace,
            "least-loaded",
            num_servers=2,
            server_memory_mb=4096.0,
            tracer=Tracer(sink),
            fault_spec=spec,
        ).run()
        in_window = [
            e
            for e in sink
            if e["event"] == "invocation_routed"
            and notice_s < e["time_s"] <= evict_s
            and e["server"] == 0
        ]
        assert in_window == []
        notices = [
            e
            for e in sink
            if e["event"] == "eviction_notice" and e["server"] == 0
        ]
        assert notices
        assert notices[0]["evict_at_s"] == pytest.approx(evict_s)


# ----------------------------------------------------------------------
# Scheduler integration: shrink, defer, resume, observability
# ----------------------------------------------------------------------


class TestSchedulerHarvest:
    def _simulator(self, sink=None, memory_mb=1000.0):
        functions = [make_function(f"f{i}", 100.0) for i in range(8)]
        invocations = [
            Invocation(float(i), f"f{i}") for i in range(8)
        ] + [Invocation(100.0 + i, f"f{i}") for i in range(8)]
        trace = Trace(functions, invocations, name="harvest-probe")
        tracer = Tracer(sink) if sink is not None else None
        return KeepAliveSimulator(
            trace, create_policy("GD"), memory_mb, tracer=tracer
        )

    def test_shrink_emits_events_and_counters(self):
        sink = RingBufferSink()
        sim = self._simulator(sink)
        for i in range(8):
            sim.process_invocation(sim.trace.functions[f"f{i}"], float(i))
        sim._release_finished(50.0)
        sim.set_harvest_capacity(50.0, 0.5)
        assert sim.pool.capacity_mb == pytest.approx(500.0)
        assert sim.metrics.capacity_shrinks == 1
        assert sim.metrics.deflations >= 3
        shrunk = [e for e in sink if e["event"] == "capacity_shrunk"]
        assert shrunk and shrunk[0]["new_mb"] == pytest.approx(500.0)
        deflated = [e for e in sink if e["event"] == "container_deflated"]
        assert len(deflated) == sim.metrics.deflations
        # Growth back to nominal.
        sim.set_harvest_capacity(60.0, 1.0)
        assert sim.metrics.capacity_grows == 1
        assert sim.pool.capacity_mb == pytest.approx(1000.0)

    def test_same_fraction_emits_nothing(self):
        sim = self._simulator()
        sim.set_harvest_capacity(10.0, 1.0)
        assert sim.metrics.capacity_shrinks == 0
        assert sim.metrics.capacity_grows == 0

    def test_deferred_shrink_resumes_on_release(self):
        sink = RingBufferSink()
        sim = self._simulator(sink)
        f0 = sim.trace.functions["f0"]
        sim.process_invocation(f0, 0.0)  # cold start: busy until ~1.1
        sim.set_harvest_capacity(0.5, 0.5)
        # 100 MB busy fits under the 500 MB target: settles at once.
        assert sim.pool.deflation_target_mb is None
        assert sim.pool.capacity_mb == pytest.approx(500.0)
        # A genuinely-over-target deferral:
        sim2 = self._simulator(memory_mb=200.0)
        sim2.process_invocation(sim2.trace.functions["f0"], 0.0)
        sim2.process_invocation(sim2.trace.functions["f1"], 0.2)
        sim2.set_harvest_capacity(0.5, 0.5)  # target 100, busy 200
        assert sim2.pool.deflation_target_mb == pytest.approx(100.0)
        assert sim2.pool.deflation_deferred_mb == pytest.approx(100.0)
        before = sim2.metrics.deflations
        sim2._release_finished(50.0)  # both finished long before
        assert sim2.metrics.deflations == before + 1
        assert sim2.pool.deflation_target_mb is None
        assert sim2.pool.capacity_mb == pytest.approx(100.0)

    def test_notice_eviction_counts_and_emits(self):
        sink = RingBufferSink()
        sim = self._simulator(sink)
        sim.notice_eviction(10.0, evict_at_s=40.0)
        assert sim.metrics.eviction_notices == 1
        events = [e for e in sink if e["event"] == "eviction_notice"]
        assert events and events[0]["notice_s"] == pytest.approx(30.0)

    def test_harvest_day_end_to_end_without_capacity_errors(self):
        trace = harvest_day_trace(duration_s=1800.0)
        spec = FaultSpec(
            seed=7,
            harvest_interval_s=300.0,
            harvest_min_frac=0.5,
            harvest_max_frac=0.95,
            spot_mtbf_s=1500.0,
            spot_notice_s=30.0,
        )
        sim = KeepAliveSimulator(
            trace, create_policy("GD"), 6144.0, fault_spec=spec
        )
        result = sim.run()  # CapacityError would propagate
        metrics = result.metrics
        assert metrics.capacity_shrinks > 0
        assert metrics.capacity_grows > 0
        assert metrics.deflations > 0

    def test_cluster_spec_strips_capacity_fields(self):
        spec = FaultSpec(
            seed=1,
            harvest_interval_s=100.0,
            spot_mtbf_s=500.0,
            crash_rate=0.01,
        )
        stripped = _server_level_spec(spec)
        assert stripped is not None
        assert stripped.harvest_interval_s == 0.0
        assert stripped.spot_mtbf_s == 0.0
        assert stripped.capacity_steps == ()
        assert stripped.crash_rate == 0.01
        harvest_only = FaultSpec(seed=1, harvest_interval_s=100.0)
        assert _server_level_spec(harvest_only) is None


# ----------------------------------------------------------------------
# One victim order: deflation follows it for every policy, and a
# partitioned miss respects a deferred shrink
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", available_policies())
def test_deflation_evicts_a_prefix_of_the_victim_order(name, sanitized):
    """At every harvest shrink the deflated containers are exactly the
    front of the idle set sorted by ``(priority, last_used, id)`` — the
    executable specification's ``sorted()``, compared victim by victim
    (tests/reference_model.py) — and the replay survives the sanitizer.
    Regression: deflation used to walk the monotone-only index for every
    policy, so time-decaying and rent-charging scores (HYPERBOLIC, LND,
    the oracles, HIST) deflated the wrong containers or tripped the
    monotonicity check."""
    trace = churn_trace(num_functions=80, duration_s=4800.0, seed=5)
    spec = FaultSpec(
        seed=3,
        harvest_interval_s=600.0,
        harvest_min_frac=0.55,
        harvest_max_frac=0.95,
    )
    metrics = replay_both(trace, name, 8000.0, fault_spec=spec)
    assert metrics.deflations > 30 and metrics.capacity_shrinks > 2


@pytest.mark.parametrize("name", ["GD", "HIST"])
def test_partitioned_miss_under_deferred_shrink_drops(name):
    """A deferred shrink clamps capacity to the busy memory, so room
    in a tenant's slice is not room in the pool: the miss must go the
    way of any uncoverable miss. Regression: the deficit was measured
    against the slice only, selection returned ``[]`` and ``pool.add``
    raised ``CapacityError`` mid-replay."""
    long_running = [
        TraceFunction(f"big{i}", 250.0, 900.0, 901.0, tenant_id=2)
        for i in range(2)
    ]
    small = TraceFunction("small", 100.0, 1.0, 2.0, tenant_id=1)
    invocations = [Invocation(0.0, "big0"), Invocation(0.0, "big1")]
    invocations += [Invocation(160.0 + 40.0 * i, "small") for i in range(30)]
    trace = Trace(long_running + [small], invocations, name="part-defer")
    spec = FaultSpec(
        seed=3,
        harvest_interval_s=100.0,
        harvest_min_frac=0.3,
        harvest_max_frac=0.45,
    )
    result = simulate(
        trace,
        name,
        1000.0,
        tenant_mode="partitioned",
        tenant_quotas={1: 500, 2: 500},
        fault_spec=spec,
    )
    metrics = result.metrics
    # Tenant 2's two invocations hold 500 MB until t=901 while every
    # harvest target is at most 450 MB: until then tenant 1's arrivals
    # meet a pool with no free and no evictable memory (retried, then
    # shed); once the shrink lands they are served from its slice.
    assert metrics.retries > 0 and metrics.sheds > 0
    assert metrics.cold_starts == 3 and metrics.warm_starts > 0


def test_partitioned_shrink_stays_pending_while_a_busy_tenant_is_over_its_slice(sanitized):
    """A shrink whose global target is met can still leave a tenant's
    *busy* container above its scaled slice. Regression (found by
    tests/test_spec_machine.py under the sanitizer): the shrink landed,
    nothing was left to bring the tenant back inside its slice, and the
    next admission tripped the sanitizer's slice invariant."""
    big = TraceFunction("big", 100.0, 5.0, 10.0, tenant_id=2)
    small = TraceFunction("small", 100.0, 1.0, 2.0, tenant_id=1)
    trace = Trace([big, small], [Invocation(0.0, "big")], name="part-land")
    sim = KeepAliveSimulator(
        trace, create_policy("GD"), 1000.0,
        tenant_mode="partitioned", tenant_quotas={1: 700.0, 2: 300.0},
    )
    assert sim.process_invocation(big, 0.0) == "cold"
    sim.set_harvest_capacity(1.0, 0.3)  # slices 210 / 90: tenant 2 holds 100, busy
    assert sim.pool.capacity_mb == 300.0
    assert sim.pool.deflation_target_mb == 300.0  # met, but not finished
    assert sim.process_invocation(small, 2.0) == "cold"  # SanitizeError before
    sim.housekeeping(20.0)  # big idles: deflated back inside the slice
    assert sim.pool.deflation_target_mb is None
    assert sim.pool.tenant_used_mb(2) == 0.0 and sim.metrics.deflations == 1


# ----------------------------------------------------------------------
# Determinism: cross-hash-seed subprocesses
# ----------------------------------------------------------------------

_SUBPROCESS_SCRIPT = """
import json
from repro.core.policies.base import create_policy
from repro.faults import FaultSpec
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.synth import harvest_day_trace

trace = harvest_day_trace(duration_s=1200.0)
spec = FaultSpec(
    seed=7,
    harvest_interval_s=240.0,
    harvest_min_frac=0.5,
    spot_mtbf_s=900.0,
    spot_notice_s=30.0,
)
sim = KeepAliveSimulator(trace, create_policy("GD"), 4096.0, fault_spec=spec)
metrics = sim.run().metrics
print(json.dumps(dict(sorted(metrics.counters().items()))))
"""


def _harvest_counters_with_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_harvest_replay_stable_across_hash_seeds():
    a = _harvest_counters_with_hashseed("0")
    b = _harvest_counters_with_hashseed("4242")
    assert a == b
    assert a["capacity_shrinks"] > 0 or a["deflations"] > 0
