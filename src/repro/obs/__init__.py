"""``repro.obs`` — structured event tracing and metrics export.

The observability layer of the reproduction: a lightweight
:class:`Tracer` that components thread through the stack, pluggable
sinks (in-memory ring buffer, JSONL files, Prometheus textfiles), and
an offline :mod:`report <repro.obs.report>` module that reconstructs
per-function timelines and eviction-churn summaries from a recorded
trace.

Quick tour::

    from repro.obs import JsonlSink, Tracer
    from repro.sim.scheduler import simulate

    with Tracer(JsonlSink("run.jsonl")) as tracer:
        result = simulate(trace, "GD", 4096, tracer=tracer)

    from repro.obs.report import load_report
    print(load_report("run.jsonl").render())

Tracing is opt-in: with no tracer attached, the simulator's hot path
pays only a ``None`` check per emission site (guarded to <2% overhead
by the throughput benchmark).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.events import (
        EVENT_SCHEMAS, EVENT_TYPES, EVICTION_REASONS, FAULT_KINDS, SHED_REASONS, SchemaError,
        validate_event,
    )
    from repro.obs.report import TraceReport, load_report, report_from_events
    from repro.obs.sinks import (
        JsonlSink, MultiSink, NullSink, PrometheusTextfileSink, RingBufferSink, Sink,
        read_jsonl_events, write_counters_textfile,
    )
    from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, active_tracer

__all__ = [
    "EVENT_SCHEMAS", "EVENT_TYPES", "EVICTION_REASONS", "FAULT_KINDS", "SHED_REASONS",
    "SchemaError", "validate_event",
    "Tracer", "NullTracer", "NULL_TRACER", "active_tracer",
    "Sink", "NullSink", "RingBufferSink", "JsonlSink", "PrometheusTextfileSink", "MultiSink",
    "read_jsonl_events", "write_counters_textfile",
    "TraceReport", "report_from_events", "load_report",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "events": (
        "EVENT_SCHEMAS EVENT_TYPES EVICTION_REASONS FAULT_KINDS SHED_REASONS SchemaError "
        "validate_event"
    ),
    "report": "TraceReport load_report report_from_events",
    "sinks": (
        "JsonlSink MultiSink NullSink PrometheusTextfileSink RingBufferSink Sink "
        "read_jsonl_events write_counters_textfile"
    ),
    "tracer": "NULL_TRACER NullTracer Tracer active_tracer",
})
