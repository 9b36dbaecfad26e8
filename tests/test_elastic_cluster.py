"""Tests for elastic (horizontal) cluster scaling."""

import random

import pytest

from repro.cluster.elastic import ElasticClusterSimulation
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import bursty_arrivals, periodic_arrivals


def steady_trace(rate_per_s=20.0, duration_s=3600.0, num_functions=20):
    rng = random.Random(1)
    functions = [
        TraceFunction(f"f{i}", 128.0, 0.2, 1.2) for i in range(num_functions)
    ]
    invocations = []
    per_fn_iat = num_functions / rate_per_s
    for i, f in enumerate(functions):
        invocations += periodic_arrivals(
            f.name, per_fn_iat, duration_s,
            start_s=rng.uniform(0, per_fn_iat), jitter=0.5, rng=rng,
        )
    return Trace(functions, invocations, name="steady")


def ramp_trace(duration_s=7200.0):
    """Quiet first hour, busy second hour."""
    rng = random.Random(2)
    functions = [TraceFunction(f"f{i}", 128.0, 0.2, 1.2) for i in range(30)]
    invocations = []
    for i, f in enumerate(functions):
        invocations += periodic_arrivals(
            f.name, 30.0, duration_s / 2, start_s=rng.uniform(0, 30.0),
            jitter=0.5, rng=rng,
        )
        invocations += periodic_arrivals(
            f.name, 1.0, duration_s / 2, start_s=duration_s / 2 + rng.uniform(0, 1.0),
            jitter=0.5, rng=rng,
        )
    return Trace(functions, invocations, name="ramp")


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ElasticClusterSimulation(
                steady_trace(duration_s=60.0), requests_per_server_per_s=0.0
            )

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            ElasticClusterSimulation(
                steady_trace(duration_s=60.0), min_servers=4, max_servers=2
            )


class TestElasticScaling:
    def test_conserves_requests(self):
        trace = steady_trace(duration_s=1800.0)
        result = ElasticClusterSimulation(
            trace, requests_per_server_per_s=10.0, control_period_s=300.0
        ).run()
        assert result.served + result.dropped == len(trace)

    def test_scales_up_on_ramp(self):
        trace = ramp_trace()
        sim = ElasticClusterSimulation(
            trace,
            requests_per_server_per_s=10.0,
            control_period_s=300.0,
            max_servers=8,
        )
        result = sim.run()
        counts = [n for __, n in result.server_timeline]
        assert counts[0] == 1
        assert max(counts) > 1
        assert result.scale_ups > 0
        # The busy second half runs on more servers than the first.
        half = len(counts) // 2
        assert max(counts[half:]) > max(counts[:half])

    def test_scale_down_after_load_drops(self):
        """Busy first half, quiet second half: servers are released
        after the hold, and the release costs cold starts."""
        rng = random.Random(3)
        functions = [TraceFunction(f"f{i}", 128.0, 0.2, 1.2) for i in range(30)]
        invocations = []
        for f in functions:
            invocations += periodic_arrivals(
                f.name, 1.0, 3600.0, start_s=rng.uniform(0, 1.0),
                jitter=0.5, rng=rng,
            )
            invocations += periodic_arrivals(
                f.name, 60.0, 3600.0, start_s=3600.0 + rng.uniform(0, 60.0),
                jitter=0.5, rng=rng,
            )
        trace = Trace(functions, invocations, name="fall")
        result = ElasticClusterSimulation(
            trace,
            requests_per_server_per_s=10.0,
            control_period_s=300.0,
            scale_down_hold_s=600.0,
            max_servers=8,
        ).run()
        assert result.scale_downs > 0
        counts = [n for __, n in result.server_timeline]
        assert counts[-1] < max(counts)

    def test_routing_is_consistent_for_stable_cluster(self):
        trace = steady_trace(rate_per_s=5.0, duration_s=1800.0)
        sim = ElasticClusterSimulation(
            trace, requests_per_server_per_s=100.0, control_period_s=600.0
        )
        # Low load: one server throughout; every function routes there.
        result = sim.run()
        assert result.scale_ups == 0
        assert result.mean_servers == 1.0

    def test_mean_servers_tracks_load(self):
        light = ElasticClusterSimulation(
            steady_trace(rate_per_s=5.0, duration_s=1800.0),
            requests_per_server_per_s=10.0,
            control_period_s=300.0,
        ).run()
        heavy = ElasticClusterSimulation(
            steady_trace(rate_per_s=40.0, duration_s=1800.0),
            requests_per_server_per_s=10.0,
            control_period_s=300.0,
        ).run()
        assert heavy.mean_servers > light.mean_servers

    def test_cold_start_pct_bounds(self):
        trace = steady_trace(duration_s=900.0)
        result = ElasticClusterSimulation(
            trace, requests_per_server_per_s=10.0, control_period_s=300.0
        ).run()
        assert 0.0 <= result.cold_start_pct <= 100.0


class TestElasticFaults:
    """Fault injection folded through the elastic controller."""

    def _spec(self, **kw):
        from repro.faults import FaultSpec

        base = dict(seed=7, crash_rate=0.02,
                    server_downtimes=((0, 300.0, 600.0),))
        base.update(kw)
        return FaultSpec(**base)

    def test_faulted_run_populates_counters(self):
        trace = steady_trace(duration_s=1800.0)
        result = ElasticClusterSimulation(
            trace, requests_per_server_per_s=10.0, control_period_s=300.0,
            max_servers=4, fault_spec=self._spec(),
        ).run()
        assert result.faults_injected > 0
        assert result.server_downs >= 1
        assert result.served + result.dropped + result.sheds == len(trace)

    def test_deterministic(self):
        trace = steady_trace(duration_s=1800.0)

        def run():
            r = ElasticClusterSimulation(
                trace, requests_per_server_per_s=10.0,
                control_period_s=300.0, max_servers=4,
                fault_spec=self._spec(),
            ).run()
            return (r.served, r.dropped, r.sheds, r.faults_injected,
                    r.retries, r.server_downs, r.shed_unavailable,
                    r.scale_ups, r.scale_downs)

        assert run() == run()

    def test_zero_fault_spec_is_baseline(self):
        from repro.faults import FaultSpec

        trace = steady_trace(duration_s=1800.0)
        kwargs = dict(requests_per_server_per_s=10.0,
                      control_period_s=300.0, max_servers=4)
        base = ElasticClusterSimulation(trace, **kwargs).run()
        nulled = ElasticClusterSimulation(
            trace, fault_spec=FaultSpec(seed=9), **kwargs
        ).run()
        assert (base.served, base.dropped, base.scale_ups,
                base.scale_downs) == (
            nulled.served, nulled.dropped, nulled.scale_ups,
            nulled.scale_downs)
        assert nulled.faults_injected == 0 and nulled.sheds == 0


class TestOneClusterTimeline:
    """Server events and the scaler's tick come off one queue, in time
    order, and the replay reads any trace form."""

    def test_tick_after_an_earlier_spot_eviction_with_no_arrival_between(self):
        """The parent fired every due scaler tick before any due server
        event, so across a gap in the arrivals a tick was applied before
        the spot eviction that preceded it by 50 s."""
        from repro.faults import FaultModel, FaultSpec
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        spec = FaultSpec(seed=5, spot_mtbf_s=800.0, spot_notice_s=30.0)
        __, evict_s = FaultModel(spec).spot_evictions(0, 5000.0)[0]
        function = TraceFunction("f", 128.0, 0.2, 1.2)
        sparse = Trace(
            [function],
            [Invocation(t, "f") for t in (0.0, 1.0, evict_s + 100.0, evict_s + 101.0)],
        )
        sink = RingBufferSink()
        result = ElasticClusterSimulation(
            sparse, max_servers=3, control_period_s=evict_s + 50.0,
            fault_spec=spec, tracer=Tracer(sink),
        ).run()
        events = sink.snapshot()
        times = [event["time_s"] for event in events]
        assert times == sorted(times)
        kinds = [(event["event"], event.get("server")) for event in events]
        assert kinds.index(("server_down", 0)) < kinds.index(("autoscale_decision", None))
        assert result.replacements >= 1

    def test_columnar_trace_replays_the_same(self):
        from repro.faults import FaultSpec
        from repro.traces.columnar import ColumnarTrace

        trace = steady_trace(duration_s=1800.0)
        kwargs = dict(
            requests_per_server_per_s=10.0, control_period_s=300.0, max_servers=4,
            fault_spec=FaultSpec(seed=7, crash_rate=0.02, server_downtimes=((0, 300.0, 600.0),)),
        )
        over_objects = ElasticClusterSimulation(trace, **kwargs).run()
        over_columns = ElasticClusterSimulation(ColumnarTrace.from_trace(trace), **kwargs).run()
        assert over_columns.counters() == over_objects.counters()
        assert over_columns.server_timeline == over_objects.server_timeline
        assert over_columns.shed_unavailable == over_objects.shed_unavailable
