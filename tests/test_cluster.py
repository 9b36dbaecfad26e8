"""Tests for cluster-level load balancing and the cluster simulator."""

import pytest

from repro.cluster.loadbalancer import (
    HashAffinityBalancer,
    LeastLoadedBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    create_balancer,
)
from repro.cluster.simulation import ClusterSimulator
from tests.conftest import make_trace


class TestBalancers:
    def test_registry(self):
        for name in ("random", "round-robin", "hash-affinity", "least-loaded"):
            assert create_balancer(name, 4).name == name
        with pytest.raises(ValueError):
            create_balancer("psychic", 4)

    def test_server_count_validation(self):
        with pytest.raises(ValueError):
            RandomBalancer(0)

    def test_round_robin_cycles(self):
        lb = RoundRobinBalancer(3)
        routes = [lb.route("f", [0, 0, 0]) for __ in range(6)]
        assert routes == [0, 1, 2, 0, 1, 2]

    def test_random_in_range_and_deterministic(self):
        lb = RandomBalancer(4, seed=7)
        routes = [lb.route("f", [0] * 4) for __ in range(50)]
        assert all(0 <= r < 4 for r in routes)
        lb2 = RandomBalancer(4, seed=7)
        assert routes == [lb2.route("f", [0] * 4) for __ in range(50)]

    def test_hash_affinity_is_sticky(self):
        lb = HashAffinityBalancer(8, replicas=1)
        routes = {lb.route("my-func", [0] * 8) for __ in range(20)}
        assert len(routes) == 1

    def test_hash_affinity_replicas_rotate(self):
        lb = HashAffinityBalancer(8, replicas=3)
        routes = [lb.route("my-func", [0] * 8) for __ in range(9)]
        assert len(set(routes)) == 3
        # Strict rotation among the replica set.
        assert routes[:3] == routes[3:6] == routes[6:9]

    def test_hash_affinity_spreads_functions(self):
        lb = HashAffinityBalancer(8, replicas=1)
        routes = {lb.route(f"fn-{i}", [0] * 8) for i in range(100)}
        assert len(routes) >= 6  # most servers receive some function

    def test_hash_affinity_replica_validation(self):
        with pytest.raises(ValueError):
            HashAffinityBalancer(4, replicas=5)

    def test_least_loaded_picks_minimum(self):
        lb = LeastLoadedBalancer(3)
        assert lb.route("f", [100.0, 5.0, 50.0]) == 1

    def test_least_loaded_length_check(self):
        lb = LeastLoadedBalancer(3)
        with pytest.raises(ValueError):
            lb.route("f", [1.0])

    @pytest.mark.parametrize("name", [
        "affinity-spillover", "least-loaded", "min-worker-set", "join-shortest-queue",
    ])
    def test_load_aware_balancers_refuse_a_short_load_vector(self, name):
        lb = create_balancer(name, 3)
        with pytest.raises(ValueError, match=r"^expected 3 load entries, got 2$"):
            lb.route("f", [1.0, 2.0])
        assert lb.route("f", [0.0, 0.0, 0.0]) in range(3)


class TestClusterSimulator:
    def test_all_invocations_routed(self):
        trace = make_trace("ABCD" * 25, gap_s=1.0)
        result = ClusterSimulator(
            trace, "round-robin", num_servers=4, server_memory_mb=2048.0
        ).run()
        assert sum(result.routed) == len(trace)
        assert result.served + result.dropped == len(trace)

    def test_single_server_matches_plain_simulator(self):
        from repro.sim.scheduler import simulate

        trace = make_trace("ABCABCBCA" * 10, gap_s=2.0)
        cluster = ClusterSimulator(
            trace, "round-robin", num_servers=1, server_memory_mb=1024.0
        ).run()
        single = simulate(trace, "GD", 1024.0).metrics
        assert cluster.cold_starts == single.cold_starts
        assert cluster.warm_starts == single.warm_starts

    def test_affinity_beats_random_on_locality(self):
        # Many functions, several servers, constrained memory: the
        # Section 9 claim — stateful routing improves keep-alive.
        sequence = []
        names = [chr(ord("A") + i) for i in range(20)]
        for round_ in range(40):
            sequence.extend(names)
        trace = make_trace("".join(sequence), gap_s=1.0)
        random_result = ClusterSimulator(
            trace, "random", num_servers=4, server_memory_mb=1280.0
        ).run()
        affinity_result = ClusterSimulator(
            trace, "hash-affinity", num_servers=4, server_memory_mb=1280.0
        ).run()
        assert (
            affinity_result.cold_start_pct < random_result.cold_start_pct
        )

    def test_balancer_instance_accepted(self):
        trace = make_trace("AB" * 5)
        lb = RoundRobinBalancer(2)
        result = ClusterSimulator(
            trace, lb, num_servers=2, server_memory_mb=1024.0
        ).run()
        assert result.balancer_name == "round-robin"

    def test_mismatched_balancer_size_rejected(self):
        trace = make_trace("AB")
        with pytest.raises(ValueError):
            ClusterSimulator(trace, RoundRobinBalancer(3), num_servers=2)

    def test_load_imbalance_metric(self):
        trace = make_trace("A" * 20, gap_s=100.0)
        # Affinity pins everything on one of two servers.
        result = ClusterSimulator(
            trace, "hash-affinity", num_servers=2, server_memory_mb=2048.0
        ).run()
        assert result.load_imbalance() == pytest.approx(2.0)


class TestAffinityWithSpillover:
    def test_registered(self):
        assert create_balancer("affinity-spillover", 4).name == (
            "affinity-spillover"
        )

    def test_factor_validation(self):
        from repro.cluster.loadbalancer import AffinityWithSpilloverBalancer

        with pytest.raises(ValueError):
            AffinityWithSpilloverBalancer(4, spillover_factor=1.0)

    def test_stays_home_under_balanced_load(self):
        from repro.cluster.loadbalancer import (
            AffinityWithSpilloverBalancer,
            HashAffinityBalancer,
        )

        lb = AffinityWithSpilloverBalancer(4, spillover_factor=1.5)
        home = HashAffinityBalancer(4).route("fn-x", [100.0] * 4)
        assert lb.route("fn-x", [100.0] * 4) == home
        assert lb.spillovers == 0

    def test_spills_when_home_is_hot(self):
        from repro.cluster.loadbalancer import (
            AffinityWithSpilloverBalancer,
            HashAffinityBalancer,
        )

        lb = AffinityWithSpilloverBalancer(4, spillover_factor=1.5)
        home = HashAffinityBalancer(4).route("fn-x", [0.0] * 4)
        load = [100.0] * 4
        load[home] = 1000.0  # home far above the mean
        coldest = min(range(4), key=lambda i: load[i])
        assert lb.route("fn-x", load) == coldest
        assert lb.spillovers == 1

    def test_bounds_imbalance_vs_pure_affinity(self):
        """Spillover keeps routed-load imbalance below pure affinity's
        on a skewed workload, at similar locality."""
        sequence = []
        names = [chr(ord("A") + i) for i in range(12)]
        for __ in range(60):
            sequence.extend(names)
        trace = make_trace("".join(sequence), gap_s=1.0)
        pure = ClusterSimulator(
            trace, "hash-affinity", num_servers=4, server_memory_mb=1024.0
        ).run()
        spill = ClusterSimulator(
            trace, "affinity-spillover", num_servers=4,
            server_memory_mb=1024.0,
            balancer_kwargs={"spillover_factor": 1.2},
        ).run()
        assert spill.load_imbalance() <= pure.load_imbalance() + 1e-9


class TestBalancerHealth:
    """Health-aware routing: down servers are skipped by every policy,
    restored by mark_up, and an empty healthy set raises."""

    @pytest.mark.parametrize(
        "name", ["random", "round-robin", "hash-affinity",
                 "affinity-spillover", "least-loaded"]
    )
    def test_down_server_never_routed(self, name):
        lb = create_balancer(name, 4)
        lb.mark_down(2)
        routes = {lb.route(f"fn-{i}", [10.0] * 4) for i in range(40)}
        assert 2 not in routes
        assert lb.down_servers == {2}

    @pytest.mark.parametrize(
        "name", ["random", "round-robin", "hash-affinity",
                 "affinity-spillover", "least-loaded"]
    )
    def test_all_down_raises(self, name):
        from repro.cluster.loadbalancer import NoHealthyServers

        lb = create_balancer(name, 3)
        for i in range(3):
            lb.mark_down(i)
        with pytest.raises(NoHealthyServers):
            lb.route("f", [0.0] * 3)

    def test_mark_down_validates_range(self):
        lb = create_balancer("round-robin", 3)
        with pytest.raises(ValueError):
            lb.mark_down(3)

    def test_mark_up_restores(self):
        lb = RoundRobinBalancer(2)
        lb.mark_down(0)
        assert [lb.route("f", [0, 0]) for __ in range(3)] == [1, 1, 1]
        lb.mark_up(0)
        lb.mark_up(0)  # idempotent
        assert 0 in {lb.route("f", [0, 0]) for __ in range(4)}

    def test_random_draw_sequence_unchanged_when_healthy(self):
        # The fast path must preserve the exact pre-health-awareness
        # RNG stream: a balancer that went down and came back makes
        # the same decisions as one that never did.
        lb = RandomBalancer(4, seed=7)
        lb.mark_down(1)
        lb.mark_up(1)
        baseline = RandomBalancer(4, seed=7)
        routes = [lb.route("f", [0] * 4) for __ in range(50)]
        assert routes == [baseline.route("f", [0] * 4) for __ in range(50)]

    def test_hash_affinity_reroute_deterministic_and_restoring(self):
        lb = HashAffinityBalancer(4, replicas=1)
        home = lb.route("fn-x", [0.0] * 4)
        lb.mark_down(home)
        rerouted = {lb.route("fn-x", [0.0] * 4) for __ in range(8)}
        assert len(rerouted) == 1  # deterministic fallback target
        assert home not in rerouted
        # The fallback is the next server on the hash ring.
        assert rerouted == {(home + 1) % 4}
        lb.mark_up(home)
        assert lb.route("fn-x", [0.0] * 4) == home

    def test_least_loaded_tie_break_is_lowest_index(self):
        # The documented contract: among equally-loaded healthy
        # servers, the lowest index always wins.
        lb = LeastLoadedBalancer(4)
        assert lb.route("f", [5.0, 5.0, 5.0, 5.0]) == 0
        lb.mark_down(0)
        assert lb.route("f", [5.0, 5.0, 5.0, 5.0]) == 1
        assert lb.route("g", [9.0, 3.0, 3.0, 9.0]) == 1


class TestSpilloverRouteTraced:
    """route_traced edge cases for the spillover balancer."""

    def _tracer_and_events(self):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        sink = RingBufferSink()
        return Tracer(sink, strict=True), sink

    def _home(self, num_servers, replicas=1):
        return HashAffinityBalancer(num_servers, replicas=replicas).route(
            "fn-x", [0.0] * num_servers
        )

    def test_all_replicas_over_threshold_spills_once(self):
        from repro.cluster.loadbalancer import AffinityWithSpilloverBalancer

        lb = AffinityWithSpilloverBalancer(
            4, replicas=2, spillover_factor=1.5
        )
        tracer, sink = self._tracer_and_events()
        home = self._home(4, replicas=2)
        load = [100.0] * 4
        load[home] = 1000.0
        load[(home + 1) % 4] = 1000.0  # both replicas hot
        server = lb.route_traced("fn-x", load, 1.0, tracer)
        assert load[server] == 100.0  # diverted off the hot home set
        (event,) = sink.snapshot()
        assert event["event"] == "invocation_routed"
        assert event["server"] == server
        assert event["spilled"] is True
        assert lb.spillovers == 1

    def test_single_server_ring_never_spills(self):
        from repro.cluster.loadbalancer import AffinityWithSpilloverBalancer

        lb = AffinityWithSpilloverBalancer(1, spillover_factor=1.5)
        tracer, sink = self._tracer_and_events()
        for t in range(5):
            assert lb.route_traced("fn-x", [500.0], float(t), tracer) == 0
        assert lb.spillovers == 0
        assert all(not e["spilled"] for e in sink.snapshot())

    def test_all_affinity_servers_down_reroutes(self):
        from repro.cluster.loadbalancer import AffinityWithSpilloverBalancer

        lb = AffinityWithSpilloverBalancer(
            4, replicas=2, spillover_factor=1.5
        )
        tracer, sink = self._tracer_and_events()
        home = self._home(4, replicas=2)
        lb.mark_down(home)
        lb.mark_down((home + 1) % 4)
        server = lb.route_traced("fn-x", [10.0] * 4, 1.0, tracer)
        assert server not in {home, (home + 1) % 4}
        (event,) = sink.snapshot()
        assert event["server"] == server
        assert event["spilled"] is False  # reroute, not a load spill

    def test_all_servers_down_raises_before_emitting(self):
        from repro.cluster.loadbalancer import (
            AffinityWithSpilloverBalancer,
            NoHealthyServers,
        )

        lb = AffinityWithSpilloverBalancer(2, spillover_factor=1.5)
        tracer, sink = self._tracer_and_events()
        lb.mark_down(0)
        lb.mark_down(1)
        with pytest.raises(NoHealthyServers):
            lb.route_traced("fn-x", [0.0, 0.0], 1.0, tracer)
        assert sink.snapshot() == []


class TestClusterFaults:
    """Whole-server outages driven through the cluster simulator."""

    def _trace(self):
        return make_trace("ABCDABCDBCAD" * 30, gap_s=2.0)

    def test_zero_fault_spec_matches_baseline(self):
        from repro.faults import FaultSpec

        trace = self._trace()
        base = ClusterSimulator(
            trace, "hash-affinity", num_servers=2, server_memory_mb=1024.0
        ).run()
        nulled = ClusterSimulator(
            trace, "hash-affinity", num_servers=2, server_memory_mb=1024.0,
            fault_spec=FaultSpec(seed=3),
        ).run()
        assert base.warm_starts == nulled.warm_starts
        assert base.cold_starts == nulled.cold_starts
        assert base.routed == nulled.routed
        assert nulled.sheds == 0 and nulled.server_downs == 0

    @pytest.mark.parametrize(
        "balancer", ["random", "round-robin", "hash-affinity",
                     "affinity-spillover", "least-loaded"]
    )
    def test_outage_sheds_then_recovers(self, balancer):
        from repro.faults import FaultSpec

        trace = self._trace()
        spec = FaultSpec(
            seed=1, server_downtimes=((0, 100.0, 200.0), (1, 100.0, 200.0))
        )
        result = ClusterSimulator(
            trace, balancer, num_servers=2, server_memory_mb=1024.0,
            fault_spec=spec,
        ).run()
        # Both servers down over [100, 200): those arrivals are shed
        # at the cluster level; everything else is served.
        assert result.shed_unavailable > 0
        assert result.server_downs == 2
        assert result.served + result.dropped + result.sheds == len(trace)

    def test_single_server_outage_reroutes_not_sheds(self):
        from repro.faults import FaultSpec

        trace = self._trace()
        spec = FaultSpec(seed=1, server_downtimes=((0, 100.0, 200.0),))
        result = ClusterSimulator(
            trace, "hash-affinity", num_servers=2, server_memory_mb=1024.0,
            fault_spec=spec,
        ).run()
        # The healthy server absorbs the failed one's traffic.
        assert result.shed_unavailable == 0
        assert result.server_downs == 1
        assert result.served + result.dropped == len(trace)

    def test_member_simulators_do_not_double_apply_outages(self):
        from repro.faults import FaultSpec

        trace = self._trace()
        spec = FaultSpec(seed=1, server_downtimes=((0, 100.0, 200.0),))
        sim = ClusterSimulator(
            trace, "round-robin", num_servers=2, server_memory_mb=1024.0,
            fault_spec=spec,
        )
        # The server-level spec hands outage ownership to the cluster:
        # members must not also schedule the downtime themselves, so a
        # member's own timeline has nothing to fire.
        for server in sim.servers:
            server.fire_before(float("inf"))
            assert server.metrics.server_downs == 0 and not server.is_down
        result = sim.run()
        assert result.server_downs == 1

    def test_columnar_trace_replays_the_same(self):
        from repro.faults import FaultSpec
        from tests.conftest import from_columns

        trace = self._trace()
        spec = FaultSpec(seed=5, crash_rate=0.05, server_downtimes=((0, 100.0, 160.0),))

        def run(form):
            return ClusterSimulator(
                form, "affinity-spillover", num_servers=2,
                server_memory_mb=1024.0, fault_spec=spec,
            ).run()

        over_objects, over_columns = run(trace), run(from_columns(trace))
        assert over_columns.counters() == over_objects.counters()
        assert over_columns.routed == over_objects.routed
        assert over_columns.shed_unavailable == over_objects.shed_unavailable


def _member_timeline_trace(seed, mean_gap_s, count):
    """``count`` arrivals with exponential gaps over six functions of
    200–700 MB."""
    import random

    from repro.traces.model import Invocation, Trace, TraceFunction

    functions = [
        TraceFunction(f"f{i}", 200.0 + 100.0 * i, 0.4 + 0.1 * i, 1.5 + 0.3 * i)
        for i in range(6)
    ]
    rng = random.Random(seed)
    time_s, invocations = 0.0, []
    for __ in range(count):
        time_s += rng.expovariate(1.0 / mean_gap_s)
        invocations.append(Invocation(time_s, rng.choice(functions).name))
    return Trace(functions, invocations)


class TestMemberTimeline:
    """A member's retries wait on its own timeline while the cluster
    files the member's outage and harvest events on one of its own.
    Before a cluster entry touches a member at T, the member fires its
    own entries due before T, so the member sees its entries in (time,
    filing) order. Without that rule a retry due before a cluster event
    fires after it."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("driver", ["fixed", "elastic"])
    def test_one_server_cluster_is_the_server(self, driver, seed):
        """Crash + harvest faults only: outages and spot evictions are
        the cluster's own and mean more there (a spot eviction retires
        an elastic member). Without the member rule every seed differs."""
        from repro.cluster.elastic import ElasticClusterSimulation
        from repro.faults import FaultSpec
        from repro.sim.scheduler import simulate

        trace = _member_timeline_trace(seed, mean_gap_s=3.0, count=400)
        spec = FaultSpec(
            seed=seed, crash_rate=0.2, harvest_interval_s=5.0, harvest_min_frac=0.3,
            base_delay_s=0.5,
        )
        server = simulate(trace, "GD", 2000.0, fault_spec=spec, engine="object").metrics
        if driver == "fixed":
            cluster = ClusterSimulator(
                trace, "round-robin", num_servers=1, server_memory_mb=2000.0, fault_spec=spec,
            ).run()
        else:
            cluster = ElasticClusterSimulation(
                trace, server_memory_mb=2000.0, min_servers=1, max_servers=1, fault_spec=spec,
            ).run()
        assert server.retries > 0 and server.capacity_shrinks > 0
        assert cluster.counters() == server.counters()

    def test_retries_fire_in_order_with_the_clusters_outage(self):
        """Server 0 of two is down over [3, 50). Its retries due before
        3 s fire before ``server_down``, those due inside the outage
        meet a failed server, and nothing is served there. Without the
        member rule, retries filed before the outage fire after the
        recovery and cold-start on the server while it is down."""
        from repro.faults import FaultSpec
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        trace = _member_timeline_trace(7, mean_gap_s=1.0, count=100)
        spec = FaultSpec(seed=7, crash_rate=0.5, server_downtimes=((0, 3.0, 50.0),))
        sink = RingBufferSink(capacity=100_000)
        ClusterSimulator(
            trace, "round-robin", num_servers=2, server_memory_mb=2000.0, fault_spec=spec,
            tracer=Tracer(sink),
        ).run()
        events = [event for event in sink.snapshot() if event.get("server") == 0]
        kinds = [event["event"] for event in events]
        down, up = kinds.index("server_down"), kinds.index("server_recovered")
        attempts = {"fault_injected", "invocation_retried", "invocation_shed", "cold_start", "warm_hit"}
        phases = [
            (0 if event["time_s"] < 3.0 else 1 if event["time_s"] < 50.0 else 2,
             0 if i < down else 1 if i < up else 2)
            for i, event in enumerate(events) if event["event"] in attempts
        ]
        assert all(by_time == by_order for by_time, by_order in phases)
        # Retries were filed before the outage, due before it and inside it.
        filed = [
            event["time_s"] + event["delay_s"]
            for event in events[:down] if event["event"] == "invocation_retried"
        ]
        assert any(due < 3.0 for due in filed) and any(3.0 <= due < 50.0 for due in filed)
        inside = [event["event"] for event in events[down:up] if event["event"] in attempts]
        assert inside and "cold_start" not in inside and "warm_hit" not in inside
