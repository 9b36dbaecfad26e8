"""Tests for the event sinks: buffering, persistence, export."""

import json
import pickle

import pytest

from repro.obs.sinks import (
    JsonlSink,
    MultiSink,
    PrometheusTextfileSink,
    RingBufferSink,
    read_jsonl_events,
    write_counters_textfile,
)
from repro.obs.tracer import NULL_TRACER, Tracer, active_tracer


def _event(event_type="invocation_arrived", time_s=1.0, **fields):
    event = {"event": event_type, "time_s": time_s, "function": "f"}
    event.update(fields)
    return event


class TestRingBufferSink:
    def test_stores_in_order(self):
        sink = RingBufferSink()
        for i in range(5):
            sink.emit(_event(time_s=float(i)))
        assert [e["time_s"] for e in sink] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(sink) == 5
        assert sink.total_emitted == 5
        assert sink.dropped == 0

    def test_capacity_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit(_event(time_s=float(i)))
        assert [e["time_s"] for e in sink] == [7.0, 8.0, 9.0]
        assert sink.total_emitted == 10
        assert sink.dropped == 7

    def test_snapshot_is_a_copy(self):
        sink = RingBufferSink()
        sink.emit(_event())
        snap = sink.snapshot()
        sink.emit(_event())
        assert len(snap) == 1
        assert len(sink) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(_event(time_s=0.5))
            sink.emit(_event("dropped", time_s=1.5, needed_mb=128.0))
        assert sink.events_written == 2
        events = list(read_jsonl_events(path))
        assert events[0]["time_s"] == 0.5
        assert events[1] == {
            "event": "dropped", "time_s": 1.5, "function": "f",
            "needed_mb": 128.0,
        }

    def test_eager_open_creates_file_immediately(self, tmp_path):
        path = tmp_path / "sub" / "eager.jsonl"
        sink = JsonlSink(path)
        assert path.exists()  # nothing emitted yet
        sink.close()
        assert path.exists()
        assert list(read_jsonl_events(path)) == []

    def test_compact_single_line_json(self, tmp_path):
        path = tmp_path / "compact.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(_event())
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["event"] == "invocation_arrived"
        assert ": " not in line  # compact separators


class TestPrometheusTextfileSink:
    def _feed(self, sink):
        tracer = Tracer(sink)
        tracer.emit("warm_hit", 1.0, function="f", container_id=1,
                    duration_s=0.5)
        tracer.emit("cold_start", 2.0, function="f", container_id=2,
                    duration_s=2.0)
        tracer.emit("cold_start", 3.0, function="g", container_id=3,
                    duration_s=4.0)
        tracer.emit("container_spawned", 2.0, function="f",
                    container_id=2, memory_mb=128.0, pinned=False,
                    prewarmed=False)
        tracer.emit("evicted", 4.0, function="f", container_id=2,
                    policy="GD", reason="pressure", freed_mb=128.0,
                    priority=1.0, idle_s=1.0, age_s=2.0)
        tracer.emit("dropped", 5.0, function="g", needed_mb=256.0)
        tracer.emit("pool_pressure", 4.0, needed_mb=128.0, free_mb=0.0,
                    evictable_mb=128.0, used_mb=512.0, capacity_mb=512.0)

    def test_counters_and_histograms_rendered(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusTextfileSink(path)
        self._feed(sink)
        sink.flush()
        text = path.read_text()
        assert 'faascache_invocations_total{outcome="warm"} 1' in text
        assert 'faascache_invocations_total{outcome="cold"} 2' in text
        assert 'faascache_invocations_total{outcome="dropped"} 1' in text
        assert (
            'faascache_evictions_total{policy="GD",reason="pressure"} 1'
            in text
        )
        assert 'faascache_containers_spawned_total{kind="cold"} 1' in text
        assert "faascache_pool_pressure_total 1" in text
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'le="+Inf"' in text
        assert "faascache_eviction_freed_mb_count 1" in text

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusTextfileSink(path)
        self._feed(sink)
        sink.close()
        assert path.exists()

    def test_custom_namespace(self, tmp_path):
        path = tmp_path / "metrics.prom"
        sink = PrometheusTextfileSink(path, namespace="keepalive")
        self._feed(sink)
        sink.flush()
        text = path.read_text()
        assert "keepalive_invocations_total" in text
        assert "faascache_" not in text


class TestMultiSink:
    def test_fans_out(self, tmp_path):
        ring = RingBufferSink()
        path = tmp_path / "multi.jsonl"
        jsonl = JsonlSink(path)
        multi = MultiSink(ring, jsonl)
        multi.emit(_event())
        multi.close()
        assert len(ring) == 1
        assert len(list(read_jsonl_events(path))) == 1

    def test_requires_a_sink(self):
        with pytest.raises(ValueError):
            MultiSink()


class TestProcessLocality:
    """Sinks hold process-local state: pickling must fail loudly, not
    silently duplicate file handles into worker processes."""

    @pytest.mark.parametrize(
        "make",
        [
            RingBufferSink,
            lambda: MultiSink(RingBufferSink()),
        ],
    )
    def test_sinks_refuse_to_pickle(self, make):
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(make())

    def test_jsonl_sink_refuses_to_pickle(self, tmp_path):
        with pytest.raises(TypeError, match="trace_dir"):
            pickle.dumps(JsonlSink(tmp_path / "x.jsonl"))

    def test_tracer_with_sink_refuses_to_pickle(self):
        with pytest.raises(TypeError):
            pickle.dumps(Tracer(RingBufferSink()))


class TestNullPath:
    def test_null_tracer_is_inactive(self):
        assert active_tracer(None) is None
        assert active_tracer(NULL_TRACER) is None
        tracer = Tracer(RingBufferSink())
        assert active_tracer(tracer) is tracer

    def test_null_tracer_bind_stays_null(self):
        bound = NULL_TRACER.bind(server=3)
        assert active_tracer(bound) is None
        bound.emit("invocation_arrived", 0.0, function="f")  # no-op


class TestWriteCountersTextfile:
    def test_rows_with_labels(self, tmp_path):
        path = tmp_path / "sweep.prom"
        write_counters_textfile(
            path,
            [
                ({"policy": "GD", "memory_gb": "1"},
                 {"warm_starts": 10, "cold_starts": 2}),
                ({"policy": "TTL", "memory_gb": "1"},
                 {"warm_starts": 8, "cold_starts": 4}),
            ],
        )
        text = path.read_text()
        assert (
            'faascache_warm_starts_total{memory_gb="1",policy="GD"} 10'
            in text or
            'faascache_warm_starts_total{policy="GD",memory_gb="1"} 10'
            in text
        )
        assert text.count("# TYPE faascache_warm_starts_total counter") == 1
