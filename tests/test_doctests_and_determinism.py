"""Docstring examples, end-to-end determinism of the sampled paper
traces, and the invoker's latency percentiles.

The doctests double as API documentation; running them here keeps the
examples in module docstrings honest. Byte-level determinism of every
output kind (twice, in a fresh process, across hash seeds) is
tests/test_determinism.py's table.
"""

import doctest

import pytest

import repro.analysis.stats
import repro.core.clock
import repro.core.policies.base
import repro.cluster.loadbalancer
import repro.provisioning.analytical
import repro.provisioning.hit_ratio
import repro.provisioning.reuse_distance
import repro.provisioning.shards
import repro.traces.functionbench
import repro.traces.preprocess

DOCTESTED_MODULES = [
    repro.analysis.stats,
    repro.core.clock,
    repro.core.policies.base,
    repro.cluster.loadbalancer,
    repro.provisioning.analytical,
    repro.provisioning.hit_ratio,
    repro.provisioning.reuse_distance,
    repro.provisioning.shards,
    repro.traces.functionbench,
    repro.traces.preprocess,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"


def test_simulate_doctest():
    # repro.sim.scheduler's doctest imports a synth trace; run it too.
    import repro.sim.scheduler

    results = doctest.testmod(repro.sim.scheduler, verbose=False)
    assert results.failed == 0


class TestEndToEndDeterminism:
    def test_full_pipeline_is_deterministic(self):
        from repro.sim.scheduler import simulate
        from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
        from repro.traces.sampling import make_paper_traces

        def run_once():
            dataset = generate_azure_dataset(
                AzureGeneratorConfig(num_functions=200, max_daily_invocations=800),
                seed=99,
            )
            traces = make_paper_traces(
                dataset, sizes={"rare": 30, "representative": 40, "random": 20},
                seed=99,
            )
            return {
                name: simulate(trace, "GD", 4096.0).metrics.summary()
                for name, trace in traces.items()
            }

        assert run_once() == run_once()

    def test_percentile_latency(self):
        from repro.openwhisk.invoker import InvokerConfig, SimulatedInvoker
        from repro.traces.synth import figure8_trace

        trace = figure8_trace(duration_s=120.0)
        result = SimulatedInvoker(
            InvokerConfig(memory_mb=4096.0, cpu_cores=8), policy="GD"
        ).run(trace)
        p50 = result.percentile_latency_s(50.0)
        p99 = result.percentile_latency_s(99.0)
        assert 0.0 < p50 <= p99
        assert result.percentile_latency_s(99.0, "floating-point") > 0.0
