"""Property-based tests for the extended policies, invoker, and cluster.

Complements ``test_properties.py`` with the components added beyond
the paper's core: the wider policy family must uphold the same
conservation and capacity invariants, the simulated invoker must
account for every request exactly once with sane latencies, and the
analytical models must stay within their mathematical envelopes.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import ClusterSimulator
from repro.core.policies import EXTENDED_POLICIES, create_policy
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.openwhisk.latency import ColdStartModel
from repro.provisioning.analytical import (
    FunctionArrivalModel,
    characteristic_time,
    lru_hit_ratio,
    ttl_expected_memory_mb,
    ttl_hit_ratio,
)
from repro.sim.scheduler import KeepAliveSimulator
from tests.test_properties import traces

extended_policy_names = st.sampled_from(EXTENDED_POLICIES)


@settings(deadline=None, max_examples=40)
@given(traces(), extended_policy_names, st.floats(min_value=64.0, max_value=8192.0))
def test_extended_policies_conservation_and_capacity(
    trace, policy_name, memory_mb
):
    policy = create_policy(policy_name)
    sim = KeepAliveSimulator(trace, policy, memory_mb)
    functions = trace.functions
    for inv in trace:
        sim.process_invocation(functions[inv.function_name], inv.time_s)
        assert sim.pool.used_mb <= sim.pool.capacity_mb + 1e-6
    m = sim.metrics
    assert m.warm_starts + m.cold_starts + m.dropped == len(trace)
    assert m.actual_exec_time_s >= m.ideal_exec_time_s - 1e-9


@settings(deadline=None, max_examples=25)
@given(
    traces(max_len=60),
    st.sampled_from(["TTL", "GD", "LRU", "ARC"]),
    st.floats(min_value=256.0, max_value=4096.0),
    st.integers(min_value=1, max_value=8),
)
def test_invoker_accounts_for_every_request(
    trace, policy_name, memory_mb, cores
):
    config = InvokerConfig(
        memory_mb=memory_mb,
        cpu_cores=cores,
        request_timeout_s=30.0,
        max_concurrent_launches=2,
    )
    invoker = SimulatedInvoker(config, policy=policy_name)
    result = invoker.run(trace)
    assert result.total == len(trace)
    assert result.served + result.dropped == result.total
    model = ColdStartModel()
    for record in result.records:
        assert record.outcome in ("hit", "miss", "dropped")
        if record.outcome == "dropped":
            assert record.completion_s is None
            continue
        assert record.start_s is not None
        assert record.start_s >= record.arrival_s - 1e-9
        function = trace.functions[record.function_name]
        floor = (
            model.warm_duration_s(function)
            if record.outcome == "hit"
            else model.cold_duration_s(function)
        )
        assert record.latency_s >= floor - 1e-6


@settings(deadline=None, max_examples=20)
@given(
    traces(max_len=60),
    st.sampled_from(["random", "round-robin", "hash-affinity", "least-loaded"]),
    st.integers(min_value=1, max_value=5),
)
def test_cluster_routes_and_conserves(trace, balancer, num_servers):
    result = ClusterSimulator(
        trace, balancer, num_servers=num_servers, server_memory_mb=4096.0
    ).run()
    assert sum(result.routed) == len(trace)
    assert result.served + result.dropped == len(trace)
    assert 0.0 <= result.cold_start_pct <= 100.0


@st.composite
def arrival_models(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    return [
        FunctionArrivalModel(
            name=f"f{i}",
            rate_per_s=draw(st.floats(min_value=1e-4, max_value=10.0)),
            size_mb=draw(st.floats(min_value=1.0, max_value=4096.0)),
        )
        for i in range(n)
    ]


@given(arrival_models(), st.floats(min_value=0.0, max_value=1e5))
def test_ttl_model_envelope(models, ttl_s):
    occupancy = ttl_expected_memory_mb(models, ttl_s)
    working_set = sum(m.size_mb for m in models)
    assert -1e-9 <= occupancy <= working_set + 1e-9
    hr = ttl_hit_ratio(models, ttl_s)
    assert -1e-12 <= hr <= 1.0 + 1e-12


@given(arrival_models(), st.floats(min_value=0.01, max_value=0.99))
def test_characteristic_time_fixed_point(models, fraction):
    working_set = sum(m.size_mb for m in models)
    cache = fraction * working_set
    t_c = characteristic_time(models, cache)
    if math.isinf(t_c):
        assert cache >= working_set - 1e-6
    else:
        assert ttl_expected_memory_mb(models, t_c) == (
            __import__("pytest").approx(cache, rel=1e-5)
        )
    hr = lru_hit_ratio(models, cache)
    assert 0.0 <= hr <= 1.0


@given(
    arrival_models(),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_lru_hit_ratio_monotone_in_cache(models, f1, f2):
    working_set = sum(m.size_mb for m in models)
    small, large = sorted((f1, f2))
    hr_small = lru_hit_ratio(models, small * working_set)
    hr_large = lru_hit_ratio(models, large * working_set)
    assert hr_small <= hr_large + 1e-9


@settings(deadline=None, max_examples=10)
@given(traces(max_len=60))
def test_elastic_cluster_conserves(trace):
    from repro.cluster.elastic import ElasticClusterSimulation

    result = ElasticClusterSimulation(
        trace,
        server_memory_mb=4096.0,
        requests_per_server_per_s=5.0,
        control_period_s=60.0,
        max_servers=4,
    ).run()
    assert result.served + result.dropped == len(trace)
    assert result.mean_servers >= 1.0 or len(trace) == 0


@settings(deadline=None, max_examples=20)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=30
    ),
    st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=30
    ),
)
def test_line_plot_never_crashes(xs, ys):
    from repro.analysis.reporting import format_line_plot

    n = min(len(xs), len(ys))
    text = format_line_plot(xs[:n], {"S": ys[:n]})
    assert "S=S" in text
