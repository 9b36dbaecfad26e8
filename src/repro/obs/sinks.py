"""Pluggable trace sinks: where emitted events go.

A sink is anything with ``emit(event)``, ``flush()`` and ``close()``.
Three implementations cover the usual consumers:

* :class:`RingBufferSink` — a bounded in-memory window, for tests and
  for always-on flight recording (keep the last N events, pay nothing
  for the rest).
* :class:`JsonlSink` — one JSON document per line, the interchange
  format of the CLI's ``trace`` / ``trace-report`` subcommands and of
  :mod:`repro.obs.report`.
* :class:`PrometheusTextfileSink` — aggregates events into counters
  and histograms and renders them in the Prometheus text exposition
  format on flush, suitable for the node-exporter textfile collector.

Sinks hold process-local resources (file handles, buffers). They are
deliberately **not** picklable: a sink must never be silently shared
across processes (see ``run_sweep``'s ``trace_dir``, which re-opens
JSONL sinks by *path* inside each worker instead).
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Sink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "PrometheusTextfileSink",
    "MultiSink",
    "read_jsonl_events",
    "write_counters_textfile",
]

PathLike = Union[str, pathlib.Path]
Event = Mapping[str, Any]


class Sink:
    """Base sink: emit events, flush buffered state, release resources."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Persist buffered state (no-op by default)."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __reduce__(self):
        raise TypeError(
            f"{type(self).__name__} holds process-local state and cannot "
            "be pickled; pass a path (e.g. run_sweep's "
            "trace_dir) and re-open the sink inside each worker instead"
        )


class NullSink(Sink):
    """Discards everything. Useful for measuring emission overhead."""

    def emit(self, event: Event) -> None:
        pass


class RingBufferSink(Sink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: Event) -> None:
        self._events.append(dict(event))
        self.total_emitted += 1

    @property
    def dropped(self) -> int:
        """Events pushed out of the window since creation."""
        return self.total_emitted - len(self._events)

    def snapshot(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.snapshot())


class JsonlSink(Sink):
    """Appends each event as one JSON line to ``path``.

    The file is opened lazily on the first event, so constructing a
    sink for a run that never emits leaves no empty file behind unless
    ``eager=True`` (the CLI uses eager mode so an empty trace is still
    a valid, empty JSONL file).
    """

    def __init__(self, path: PathLike, eager: bool = False) -> None:
        self.path = pathlib.Path(path)
        self._handle = None
        self.events_written = 0
        if eager:
            self._open()

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w")
        return self._handle

    def emit(self, event: Event) -> None:
        self._open().write(json.dumps(event, separators=(",", ":")) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_jsonl_events(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Stream events back from a :class:`JsonlSink` file.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "t.jsonl")
    >>> with JsonlSink(path) as sink:
    ...     sink.emit({"event": "dropped", "time_s": 1.0,
    ...                "function": "f", "needed_mb": 128})
    >>> [e["event"] for e in read_jsonl_events(path)]
    ['dropped']
    """
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON event: {exc}"
                ) from None


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Bucket upper bounds for the eviction freed-memory histogram (MB).
_FREED_MB_BUCKETS = (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)
#: Bucket upper bounds for invocation durations (seconds).
_DURATION_S_BUCKETS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

Labels = Tuple[Tuple[str, str], ...]


def _labels(**kwargs: object) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _format_labels(labels: Labels) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class _Histogram:
    __slots__ = ("buckets", "counts", "count", "total")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = tuple(buckets)
        self.counts = [0] * len(self.buckets)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def render(self, name: str, out: List[str]) -> None:
        # ``observe`` increments every bucket whose bound covers the
        # value, so the stored counts are already cumulative.
        out.append(f"# TYPE {name} histogram")
        for bound, bucket in zip(self.buckets, self.counts):
            out.append(f'{name}_bucket{{le="{bound:g}"}} {bucket}')
        out.append(f'{name}_bucket{{le="+Inf"}} {self.count}')
        out.append(f"{name}_sum {self.total:g}")
        out.append(f"{name}_count {self.count}")


class PrometheusTextfileSink(Sink):
    """Aggregates events into Prometheus metrics and writes a textfile.

    Maintained metrics (all prefixed with ``namespace``, default
    ``faascache``):

    * ``invocations_total{outcome=...}`` — warm / cold / dropped.
    * ``containers_spawned_total{kind=...}`` — cold / prewarmed / pinned.
    * ``evictions_total{policy=...,reason=...}``.
    * ``eviction_freed_mb`` histogram.
    * ``invocation_duration_s{outcome=...}`` histograms.
    * ``pool_pressure_total`` and ``autoscale_decisions_total``.
    * ``faults_injected_total{kind=...}``, ``invocation_retries_total``,
      ``invocations_shed_total{reason=...}``, ``server_downs_total`` and
      ``server_downtime_seconds_total`` (fault injection / recovery).

    The textfile is written atomically (tmp file + rename) on
    :meth:`flush` / :meth:`close`, the contract the node-exporter
    textfile collector expects.
    """

    def __init__(self, path: PathLike, namespace: str = "faascache") -> None:
        self.path = pathlib.Path(path)
        self.namespace = namespace
        self._counters: Dict[Tuple[str, Labels], float] = {}
        self._freed_mb = _Histogram(_FREED_MB_BUCKETS)
        self._durations: Dict[str, _Histogram] = {}

    # -- aggregation ----------------------------------------------------

    def _inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        key = (name, _labels(**labels))
        self._counters[key] = self._counters.get(key, 0.0) + amount

    def _observe_duration(self, outcome: str, value: float) -> None:
        histogram = self._durations.get(outcome)
        if histogram is None:
            histogram = self._durations[outcome] = _Histogram(
                _DURATION_S_BUCKETS
            )
        histogram.observe(value)

    def emit(self, event: Event) -> None:
        event_type = event.get("event")
        if event_type == "warm_hit":
            self._inc("invocations_total", outcome="warm")
            self._observe_duration("warm", float(event["duration_s"]))
        elif event_type == "cold_start":
            self._inc("invocations_total", outcome="cold")
            self._observe_duration("cold", float(event["duration_s"]))
        elif event_type == "dropped":
            self._inc("invocations_total", outcome="dropped")
        elif event_type == "container_spawned":
            if event.get("pinned"):
                kind = "pinned"
            elif event.get("prewarmed"):
                kind = "prewarmed"
            else:
                kind = "cold"
            self._inc("containers_spawned_total", kind=kind)
        elif event_type == "evicted":
            self._inc(
                "evictions_total",
                policy=event.get("policy", "unknown"),
                reason=event.get("reason", "unknown"),
            )
            self._freed_mb.observe(float(event["freed_mb"]))
        elif event_type == "pool_pressure":
            self._inc("pool_pressure_total")
        elif event_type == "autoscale_decision":
            self._inc("autoscale_decisions_total")
        elif event_type == "invocation_routed":
            self._inc(
                "invocations_routed_total",
                server=event.get("server", -1),
            )
        elif event_type == "fault_injected":
            self._inc(
                "faults_injected_total", kind=event.get("kind", "unknown")
            )
        elif event_type == "invocation_retried":
            self._inc("invocation_retries_total")
        elif event_type == "invocation_shed":
            self._inc(
                "invocations_shed_total", reason=event.get("reason", "unknown")
            )
        elif event_type == "server_down":
            self._inc("server_downs_total", server=event.get("server", -1))
        elif event_type == "server_recovered":
            self._inc(
                "server_downtime_seconds_total",
                float(event.get("downtime_s", 0.0)),
                server=event.get("server", -1),
            )

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        ns = self.namespace
        lines: List[str] = []
        seen_types = set()
        for (name, labels), value in sorted(self._counters.items()):
            full = f"{ns}_{name}"
            if full not in seen_types:
                lines.append(f"# TYPE {full} counter")
                seen_types.add(full)
            lines.append(f"{full}{_format_labels(labels)} {value:g}")
        if self._freed_mb.count:
            self._freed_mb.render(f"{ns}_eviction_freed_mb", lines)
        for outcome in sorted(self._durations):
            self._durations[outcome].render(
                f"{ns}_invocation_duration_s_{outcome}", lines
            )
        return "\n".join(lines) + "\n"

    def flush(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(self.render())
        os.replace(tmp, self.path)


class MultiSink(Sink):
    """Fans every event out to several sinks."""

    def __init__(self, *sinks: Sink) -> None:
        if not sinks:
            raise ValueError("MultiSink needs at least one sink")
        self.sinks = sinks

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def write_counters_textfile(
    path: PathLike,
    rows: Iterable[Tuple[Mapping[str, object], Mapping[str, int]]],
    namespace: str = "faascache",
) -> None:
    """Render already-aggregated counters as a Prometheus textfile.

    ``rows`` pairs a label set with a counter dict (e.g. one row per
    sweep cell, labelled by policy and memory size). Used by the CLI's
    ``--metrics-out`` flags, which export end-of-run counters without
    requiring event tracing to have been enabled.
    """
    lines: List[str] = []
    seen_types = set()
    for labels, counters in rows:
        label_str = _format_labels(_labels(**labels))
        for name, value in counters.items():
            full = f"{namespace}_{name}_total"
            if full not in seen_types:
                lines.append(f"# TYPE {full} counter")
                seen_types.add(full)
            lines.append(f"{full}{label_str} {value:g}")
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, target)
