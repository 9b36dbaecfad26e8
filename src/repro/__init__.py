"""FaasCache reproduction: greedy-dual keep-alive caching for serverless.

A full reimplementation of *FaasCache: Keeping Serverless Computing
Alive with Greedy-Dual Caching* (Fuerst & Sharma, ASPLOS 2021):

* ``repro.core`` — the keep-alive policies (Greedy-Dual, TTL, LRU,
  LFU, SIZE, Landlord, HIST) and the container-pool machinery.
* ``repro.sim`` — the trace-driven discrete-event keep-alive
  simulator.
* ``repro.traces`` — workload substrates: a synthetic Azure-like
  dataset generator with the paper's preprocessing and samplers,
  FunctionBench application models, and litmus workloads.
* ``repro.provisioning`` — reuse distances, hit-ratio curves, SHARDS
  sampling, static provisioning, and the proportional vertical-scaling
  controller with cascade deflation.
* ``repro.openwhisk`` — a simulated OpenWhisk invoker for the
  empirical FaasCache-vs-vanilla comparison.
* ``repro.analysis`` — statistics helpers, figure-series builders, and
  text reporting used by the benchmark harness.

Quickstart::

    from repro import simulate, skewed_frequency_trace

    result = simulate(skewed_frequency_trace(), policy="GD", memory_mb=4096)
    print(result.metrics.summary())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.policies import PAPER_POLICIES, available_policies, create_policy
    from repro.provisioning import (
        HitRatioCurve, ProportionalController, StaticProvisioner, curve_from_trace, reuse_distances,
    )
    from repro.sim import KeepAliveSimulator, SimulationResult, simulate
    from repro.traces import (
        Trace, TraceFunction, functionbench_apps, generate_azure_dataset, make_paper_traces,
        skewed_frequency_trace,
    )

__version__ = "1.0.0"

__all__ = [
    "PAPER_POLICIES", "available_policies", "create_policy",
    "HitRatioCurve", "ProportionalController", "StaticProvisioner", "curve_from_trace",
    "reuse_distances",
    "KeepAliveSimulator", "SimulationResult", "simulate",
    "Trace", "TraceFunction", "functionbench_apps", "generate_azure_dataset", "make_paper_traces",
    "skewed_frequency_trace",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core.policies": "PAPER_POLICIES available_policies create_policy",
    "provisioning": (
        "HitRatioCurve ProportionalController StaticProvisioner curve_from_trace reuse_distances"
    ),
    "sim": "KeepAliveSimulator SimulationResult simulate",
    "traces": (
        "Trace TraceFunction functionbench_apps generate_azure_dataset make_paper_traces "
        "skewed_frequency_trace"
    ),
})
