#!/usr/bin/env python3
"""Dynamic vertical scaling with the proportional controller (Fig. 9).

Replays a diurnal Azure-like workload against a Greedy-Dual keep-alive
server whose cache size is resized every 10 minutes by the hit-ratio-
curve proportional controller (30% deadband) — a periodic event on the
simulator's timeline that resizes through its one capacity seam, priced
by cascade deflation. Prints the size/miss-speed timeline, the
average-size saving over a conservative static provision, and the
run's own shrink / grow / deflation counters.

Run:  python examples/autoscaled_server.py
      python examples/autoscaled_server.py run.jsonl run.json
      repro-faascache trace-report run.jsonl --check run.json

With two paths the run is traced: every event to the first (JSONL),
the run's counters to the second, for ``trace-report --check`` — the
controller's resizes are on the books like any harvest step's.
"""

import json
import sys

from repro.analysis.reporting import format_series_table, format_table
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.provisioning.autoscale import AutoscaledSimulation
from repro.provisioning.controller import ProportionalController
from repro.provisioning.deflation import DeflationEngine
from repro.provisioning.hit_ratio import HitRatioCurve
from repro.provisioning.reuse_distance import reuse_distances
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.preprocess import dataset_to_trace
from repro.traces.sampling import representative_sample


def main(trace_out=None, counters_out=None) -> None:
    dataset = generate_azure_dataset(
        AzureGeneratorConfig(num_functions=1000, max_daily_invocations=6000),
        seed=12,
    )
    sample = representative_sample(dataset, n=150, seed=12)
    trace = dataset_to_trace(dataset, sample, name="diurnal")
    print(
        f"Workload: {trace.num_functions} functions, {len(trace)} "
        f"invocations over {trace.duration_s / 3600:.1f} h"
    )

    curve = HitRatioCurve.from_distances(reuse_distances(trace))
    static_mb = curve.required_size(min(0.95, curve.max_hit_ratio))
    controller = ProportionalController.from_miss_ratio_target(
        curve,
        desired_miss_ratio=0.05,
        mean_arrival_rate=trace.arrival_rate(),
        initial_size_mb=static_mb,
        max_size_mb=static_mb,
        control_period_s=600.0,
        deadband=0.3,
    )
    sink = JsonlSink(trace_out) if trace_out else None
    try:
        result = AutoscaledSimulation(
            trace, controller, policy="GD", deflation_engine=DeflationEngine(),
            tracer=Tracer(sink, strict=True) if sink else None,
        ).run()
    finally:
        if sink:
            sink.close()

    counters = result.metrics.counters()
    if counters_out:
        with open(counters_out, "w") as handle:
            json.dump({"counters": counters}, handle, indent=2, sort_keys=True)
    # Print every other control period to keep the table readable.
    decisions = result.decisions[::2]
    print()
    print(
        format_series_table(
            "Hour",
            [d.time_s / 3600.0 for d in decisions],
            {
                "Size (GB)": [d.cache_size_mb / 1024.0 for d in decisions],
                "Miss speed (/s)": [d.miss_speed for d in decisions],
            },
            title=(
                f"Controller timeline "
                f"(target {controller.target_miss_speed:.4f} misses/s)"
            ),
        )
    )
    print()
    print(
        format_table(
            ["Static (GB)", "Mean dynamic (GB)", "Saving", "Shrinks",
             "Grows", "Deflations", "Actuation (s)"],
            [[
                static_mb / 1024.0,
                result.mean_cache_size_mb / 1024.0,
                f"{result.savings_vs_static(static_mb):.1%}",
                counters["capacity_shrinks"],
                counters["capacity_grows"],
                counters["deflations"],
                sum(report.latency_s for report in result.deflations),
            ]],
            title="Dynamic scaling vs conservative static provisioning",
        )
    )


if __name__ == "__main__":
    main(*sys.argv[1:3])
