"""Harness health: raw simulator throughput per policy.

Not a paper artefact — a performance-regression guard for the
substrate itself. The original authors note their simulation is
"compute-intensive (i.e. slow)"; this benchmark tracks how many
invocations per second each policy sustains in our implementation, so
a future change that accidentally makes victim selection quadratic
shows up here instead of as a mysteriously slow Figure 5 sweep.

Two configurations:

* the **multitenant** workload — the moderate-pool regime of the
  figure sweeps, guarded by an absolute invocations/second floor;
* the **eviction-heavy** workload — a working set far above capacity
  cycling through a large idle pool, where every arrival is a miss
  that must select a victim. Here :meth:`KeepAlivePolicy.victim_order`
  walking the pool's lazy victim index
  (:meth:`ContainerPool.iter_victims`) is required to beat the same
  method's sort-every-miss branch (forced by clearing
  ``monotone_priority``) by a healthy margin.

Unlike the figure benches (single-shot ``pedantic`` runs), these use
pytest-benchmark's normal repeated timing; the index-vs-sort ratio is
measured with best-of-N wall clocks since it compares two variants in
one test.
"""

import random
import time

import pytest

from repro.core.policies import create_policy
from repro.sim.scheduler import KeepAliveSimulator
from repro.traces.model import Invocation, Trace, TraceFunction
from repro.traces.synth import multitenant_trace

TRACE = multitenant_trace(duration_s=900.0, num_tenants=24)
MEMORY_MB = 4096.0


def replay(policy_name):
    sim = KeepAliveSimulator(TRACE, create_policy(policy_name), MEMORY_MB)
    return sim.run()


@pytest.mark.parametrize("policy", ["GD", "TTL", "LRU", "HIST", "ARC", "LND"])
def test_simulator_throughput(benchmark, policy):
    result = benchmark(replay, policy)
    metrics = result.metrics
    assert metrics.served + metrics.dropped == len(TRACE)
    # Guard: the simulator must stay above 10k invocations/second for
    # every policy (typical rates are far higher). Skipped under
    # --benchmark-disable, where no timings are collected.
    if benchmark.stats is not None:
        seconds_per_run = benchmark.stats.stats.mean
        rate = len(TRACE) / seconds_per_run
        assert rate > 10_000, f"{policy}: {rate:.0f} inv/s"


# ----------------------------------------------------------------------
# Eviction-heavy configuration: the victim-index regime
# ----------------------------------------------------------------------

#: 800 functions x 128 MB = a 100 GB working set against 24 GB of
#: memory (~190 idle slots). Shuffled round-robin arrivals make nearly
#: every invocation a cold start that evicts from a large idle pool.
EVICTION_HEAVY_MEMORY_MB = 24.0 * 1024.0


def _eviction_heavy_trace(
    num_functions: int = 800,
    memory_mb: float = 128.0,
    rounds: int = 25,
    seed: int = 5,
) -> Trace:
    functions = [
        TraceFunction(f"f{i:03d}", memory_mb, 0.2, 1.0)
        for i in range(num_functions)
    ]
    rng = random.Random(seed)
    invocations = []
    t = 0.0
    for _ in range(rounds):
        order = list(range(num_functions))
        rng.shuffle(order)
        for i in order:
            invocations.append(Invocation(t, f"f{i:03d}"))
            t += 0.05
    return Trace(functions, invocations, name="eviction-heavy")


EVICTION_HEAVY_TRACE = _eviction_heavy_trace()


def _churn_rate(use_index: bool, repeats: int = 3) -> float:
    """Best-of-N invocations/second for GD on the churn workload."""
    best = float("inf")
    for _ in range(repeats):
        policy = create_policy("GD")
        if not use_index:
            # Instance-level override forces the exact sort-every-miss
            # path; victim choices are identical either way.
            policy.monotone_priority = False
        sim = KeepAliveSimulator(
            EVICTION_HEAVY_TRACE, policy, EVICTION_HEAVY_MEMORY_MB
        )
        started = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - started)
    return len(EVICTION_HEAVY_TRACE) / best


def test_eviction_heavy_throughput(benchmark):
    result = benchmark(
        lambda: KeepAliveSimulator(
            EVICTION_HEAVY_TRACE, create_policy("GD"), EVICTION_HEAVY_MEMORY_MB
        ).run()
    )
    metrics = result.metrics
    assert metrics.served + metrics.dropped == len(EVICTION_HEAVY_TRACE)
    # The workload must actually exercise victim selection.
    assert metrics.evictions > len(EVICTION_HEAVY_TRACE) * 0.9


def test_victim_index_speedup():
    """The lazy index must beat sorting every idle container per miss
    by >= 1.5x on the eviction-heavy configuration (locally ~3x)."""
    indexed = _churn_rate(use_index=True)
    legacy = _churn_rate(use_index=False)
    ratio = indexed / legacy
    assert ratio >= 1.5, (
        f"victim index {indexed:,.0f} inv/s vs sort {legacy:,.0f} inv/s "
        f"(ratio {ratio:.2f}x, expected >= 1.5x)"
    )
