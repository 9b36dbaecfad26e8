#!/usr/bin/env python3
"""Policy comparison on Azure-like trace samples (the Figure 5 study).

Generates a synthetic day of Azure Functions workload, draws the
paper's three trace samples (rare / representative / random), sweeps
every keep-alive policy across server memory sizes, and prints the
execution-time-increase series — a laptop-scale rerun of the paper's
Figure 5 evaluation.

Run:  python examples/policy_comparison.py
"""

from repro.analysis.reporting import format_series_table
from repro.core.policies import PAPER_POLICIES
from repro.sim.sweep import run_sweep
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.sampling import make_paper_traces

MEMORY_GRID_GB = [5.0, 10.0, 20.0, 40.0]


def main() -> None:
    print("Generating a synthetic day of Azure-like FaaS workload ...")
    dataset = generate_azure_dataset(
        AzureGeneratorConfig(num_functions=1200, max_daily_invocations=8000),
        seed=20,
    )
    traces = make_paper_traces(
        dataset,
        sizes={"rare": 300, "representative": 160, "random": 80},
        seed=20,
    )

    for name, trace in traces.items():
        print(
            f"\n=== {name}: {trace.num_functions} functions, "
            f"{len(trace)} invocations ==="
        )
        sweep = run_sweep(trace, MEMORY_GRID_GB).require_complete()
        series = {
            policy: [
                value
                for __, value in sweep.series(policy, "exec_time_increase_pct")
            ]
            for policy in PAPER_POLICIES
        }
        print(
            format_series_table(
                "Mem (GB)",
                MEMORY_GRID_GB,
                series,
                title="% increase in execution time due to cold starts",
            )
        )
        winner = sweep.best_policy_at(
            MEMORY_GRID_GB[1], "exec_time_increase_pct"
        )
        print(f"Best policy at {MEMORY_GRID_GB[1]:.0f} GB: {winner}")


if __name__ == "__main__":
    main()
