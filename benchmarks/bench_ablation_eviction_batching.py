"""Ablation: the eviction slow path — per-need vs batched vs async.

Section 6 of the paper motivates two implementation choices around
eviction: the ContainerPool is sorted only during evictions, and
evictions are *batched* to a free-memory threshold to keep the slow
path off the invocation critical path; a kswapd-style asynchronous
eviction thread is sketched as future work. This ablation isolates the
effect on a uniform-size eviction-bound workload, where hit behaviour
is identical across variants and only the charged eviction latency
differs:

* ``per-need`` — evict exactly what the cold start needs, charging
  the full slow path to every eviction-bound cold start (vanilla
  OpenWhisk's behaviour).
* ``batched`` — evict to the free threshold, amortizing the fixed
  round cost across subsequent cold starts (FaasCache).
* ``async`` — background reclaim; cold starts pay no eviction latency
  at all (the future-work design).
"""

from repro.analysis.reporting import format_table
from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
from repro.traces.synth import cyclic_trace

from conftest import write_result

BASE = dict(
    memory_mb=1664.0,
    cpu_cores=8,
    eviction_event_latency_s=1.0,
    eviction_per_container_s=0.5,
)

VARIANTS = {
    "per-need": dict(free_threshold_mb=0.0),
    "batched": dict(free_threshold_mb=512.0),
    "async": dict(free_threshold_mb=512.0, async_reclaim=True),
}


def run_ablation():
    trace = cyclic_trace(
        num_functions=12,
        cycle_gap_s=2.0,
        num_cycles=200,
        memory_choices_mb=(256.0,),
        init_choices_s=(2.0,),
    )
    results = {}
    for name, overrides in VARIANTS.items():
        invoker = SimulatedInvoker(
            InvokerConfig(**BASE, **overrides), policy="GD"
        )
        result = invoker.run(trace)
        results[name] = (result, invoker)
    return results


def test_ablation_eviction_batching(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = []
    for name, (result, invoker) in results.items():
        rows.append(
            [
                name,
                result.cold_starts,
                invoker.eviction_events,
                invoker.background_evictions,
                result.mean_latency_s(),
            ]
        )
    text = format_table(
        ["Variant", "Cold", "Sync evict rounds", "Bg evictions", "Mean lat (s)"],
        rows,
        title="Eviction slow-path ablation (uniform cyclic, eviction-bound)",
    )
    write_result("ablation_eviction_batching.txt", text)

    per_need = results["per-need"][0]
    batched = results["batched"][0]
    async_ = results["async"][0]
    # Same hit behaviour (uniform sizes) across variants...
    assert per_need.cold_starts == batched.cold_starts == async_.cold_starts
    # ...so latency differences are pure slow-path effects, in the
    # order the paper's design narrative predicts.
    assert batched.mean_latency_s() < per_need.mean_latency_s()
    assert async_.mean_latency_s() < batched.mean_latency_s()
    # Batching makes synchronous eviction rounds rarer.
    assert (
        results["batched"][1].eviction_events
        < results["per-need"][1].eviction_events
    )
