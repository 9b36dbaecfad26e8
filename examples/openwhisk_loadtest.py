#!/usr/bin/env python3
"""OpenWhisk-vs-FaasCache load test (the Section 7.2 experiment).

Runs the paper's litmus workloads against the simulated invoker twice
— once with vanilla OpenWhisk's 10-minute TTL keep-alive and once
with FaasCache's online Greedy-Dual pool (learned init costs, batched
eviction) — and prints the warm/cold/dropped breakdown and latency of
each system.

Run:  python examples/openwhisk_loadtest.py
      python examples/openwhisk_loadtest.py fc.jsonl fc.json
      repro-faascache trace-report fc.jsonl --check fc.json

With two paths the FaasCache run of the multi-tenant workload is
replayed once more, traced: every event to the first (JSONL), the
run's counters to the second, for ``trace-report --check`` — the
invoker's keep-alive decisions are the engine's, on its books.
"""

import json
import sys

from repro.analysis.reporting import format_table
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.openwhisk.containerpool import DEFAULT_FREE_THRESHOLD_MB
from repro.openwhisk.invoker import InvokerConfig
from repro.openwhisk.loadgen import compare_keepalive_systems, faascache_invoker
from repro.traces.synth import (
    cyclic_trace,
    multitenant_trace,
    skewed_size_trace,
)


def trace_faascache(trace, config, trace_out, counters_out=None) -> None:
    """One traced FaasCache run, with the threshold
    :func:`compare_keepalive_systems` gives it."""
    invoker = faascache_invoker(
        config, free_threshold_mb=min(DEFAULT_FREE_THRESHOLD_MB, 0.05 * config.memory_mb)
    )
    sink = JsonlSink(trace_out)
    try:
        invoker.tracer = Tracer(sink, strict=True)
        counters = invoker.run(trace).metrics.counters()
    finally:
        sink.close()
    if counters_out:
        with open(counters_out, "w") as handle:
            json.dump({"counters": counters}, handle, indent=2, sort_keys=True)


def main(trace_out=None, counters_out=None) -> None:
    experiments = {
        "cyclic": (
            cyclic_trace(num_functions=12, cycle_gap_s=2.0, num_cycles=200),
            InvokerConfig(memory_mb=1664.0, cpu_cores=8),
        ),
        "skewed-size": (
            skewed_size_trace(duration_s=2400.0),
            InvokerConfig(memory_mb=4838.0, cpu_cores=8),
        ),
        "multi-tenant (fig. 8)": (
            multitenant_trace(duration_s=2400.0),
            InvokerConfig(memory_mb=12_288.0, cpu_cores=16),
        ),
    }

    rows = []
    for name, (trace, config) in experiments.items():
        print(f"Running {name!r} ({len(trace)} requests) ...")
        cmp = compare_keepalive_systems(trace, config)
        for label, result in (
            ("OpenWhisk", cmp.openwhisk),
            ("FaasCache", cmp.faascache),
        ):
            rows.append(
                [
                    name,
                    label,
                    result.warm_starts,
                    result.cold_starts,
                    result.dropped,
                    result.mean_latency_s(),
                ]
            )
        rows.append(
            [
                name,
                "-> gain",
                f"x{cmp.warm_start_gain:.2f}",
                "",
                "",
                f"x{cmp.latency_improvement:.2f}",
            ]
        )

    print()
    print(
        format_table(
            ["Workload", "System", "Warm", "Cold", "Dropped", "Mean lat. (s)"],
            rows,
            title="Vanilla OpenWhisk vs FaasCache on the simulated invoker",
        )
    )
    if trace_out:
        trace_faascache(*experiments["multi-tenant (fig. 8)"], trace_out, counters_out)


if __name__ == "__main__":
    main(*sys.argv[1:3])
