"""Workload traces: data model, synthetic Azure generator, samplers."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.traces.azure import (
        AzureApplication, AzureDataset, AzureFunctionRecord, AzureGeneratorConfig,
        generate_azure_dataset,
    )
    from repro.traces.io import load_trace_csv, load_trace_json, save_trace_csv, save_trace_json
    from repro.traces.functionbench import TABLE1_ROWS, functionbench_app, functionbench_apps
    from repro.traces.model import (
        DEFAULT_CHUNK_INVOCATIONS, FunctionTable, Invocation, Trace, TraceFunction,
    )
    from repro.traces.preprocess import (
        dataset_to_trace, minute_bucket_times, trace_function_from_record,
    )
    from repro.traces.sampling import (
        TABLE2_TARGET_RATES, make_paper_traces, random_sample, rare_sample, representative_sample,
        scale_trace_rate,
    )
    from repro.traces.streaming import STREAM_IAT_CHOICES_S, StreamingChurnTrace
    from repro.traces.synth import (
        bursty_arrivals, cyclic_trace, figure8_trace, multitenant_trace, noisy_neighbor_trace,
        periodic_arrivals, skewed_frequency_trace, skewed_size_trace,
    )

__all__ = [
    "AzureApplication", "AzureDataset", "AzureFunctionRecord", "AzureGeneratorConfig",
    "generate_azure_dataset",
    "TABLE1_ROWS",
    "load_trace_csv", "load_trace_json", "save_trace_csv", "save_trace_json",
    "functionbench_app", "functionbench_apps",
    "Invocation", "Trace", "TraceFunction", "FunctionTable", "DEFAULT_CHUNK_INVOCATIONS",
    "StreamingChurnTrace", "STREAM_IAT_CHOICES_S",
    "dataset_to_trace", "minute_bucket_times", "trace_function_from_record",
    "TABLE2_TARGET_RATES", "make_paper_traces", "random_sample", "rare_sample",
    "representative_sample", "scale_trace_rate",
    "bursty_arrivals", "cyclic_trace", "figure8_trace", "multitenant_trace", "noisy_neighbor_trace",
    "periodic_arrivals", "skewed_frequency_trace", "skewed_size_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "azure": (
        "AzureApplication AzureDataset AzureFunctionRecord AzureGeneratorConfig "
        "generate_azure_dataset"
    ),
    "io": "load_trace_csv load_trace_json save_trace_csv save_trace_json",
    "functionbench": "TABLE1_ROWS functionbench_app functionbench_apps",
    "model": "DEFAULT_CHUNK_INVOCATIONS FunctionTable Invocation Trace TraceFunction",
    "preprocess": "dataset_to_trace minute_bucket_times trace_function_from_record",
    "sampling": (
        "TABLE2_TARGET_RATES make_paper_traces random_sample rare_sample representative_sample "
        "scale_trace_rate"
    ),
    "streaming": "STREAM_IAT_CHOICES_S StreamingChurnTrace",
    "synth": (
        "bursty_arrivals cyclic_trace figure8_trace multitenant_trace noisy_neighbor_trace "
        "periodic_arrivals skewed_frequency_trace skewed_size_trace"
    ),
})
