"""Tests for trace serialization (JSON and CSV round trips)."""

import json
import re

import pytest

from repro.traces.io import (
    load_trace_csv,
    load_trace_json,
    save_trace_csv,
    save_trace_json,
)
from repro.traces.model import Invocation
from repro.traces.synth import skewed_size_trace
from tests.conftest import make_trace


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = skewed_size_trace(duration_s=120.0)
        path = tmp_path / "trace.json"
        save_trace_json(trace, path)
        loaded = load_trace_json(path)
        assert loaded.name == trace.name
        assert loaded.functions == trace.functions
        assert list(loaded.invocations) == list(trace.invocations)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace_json(path)

    def test_rejects_future_version(self, tmp_path):
        trace = make_trace("AB")
        path = tmp_path / "trace.json"
        save_trace_json(trace, path)
        document = json.loads(path.read_text())
        document["version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace_json(path)

    def test_empty_trace(self, tmp_path):
        from repro.traces.model import Trace
        from tests.conftest import make_function

        trace = Trace([make_function("A")], [], name="empty")
        path = tmp_path / "empty.json"
        save_trace_json(trace, path)
        loaded = load_trace_json(path)
        assert len(loaded) == 0
        assert loaded.num_functions == 1


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trace = make_trace("ABCBA", gap_s=1.5)
        stem = tmp_path / "trace"
        save_trace_csv(trace, stem)
        loaded = load_trace_csv(stem, name="seq")
        assert loaded.functions == trace.functions
        assert list(loaded.invocations) == list(trace.invocations)

    def test_creates_two_files(self, tmp_path):
        trace = make_trace("AB")
        stem = tmp_path / "trace"
        save_trace_csv(trace, stem)
        assert (tmp_path / "trace.functions.csv").exists()
        assert (tmp_path / "trace.invocations.csv").exists()

    def test_float_precision_survives(self, tmp_path):
        from repro.traces.model import Invocation, Trace
        from tests.conftest import make_function

        t = 0.1 + 0.2  # not exactly representable
        trace = Trace([make_function("A")], [Invocation(t, "A")])
        stem = tmp_path / "trace"
        save_trace_csv(trace, stem)
        loaded = load_trace_csv(stem)
        assert loaded.invocations[0].time_s == t


class TestColumnsOnly:
    """The loaders and savers work on the columns: no ``Invocation`` per
    arrival, and a malformed time is the loader's ``ValueError``."""

    def test_loaders_build_no_invocation(self, tmp_path, monkeypatch):
        trace = skewed_size_trace(duration_s=120.0)
        save_trace_json(trace, tmp_path / "trace.json")
        save_trace_csv(trace, tmp_path / "trace")
        built, new = [], Invocation.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Invocation, "__new__", counted_new)
        assert Invocation(1.0, "f") == (1.0, "f") and built == [(1.0, "f")]
        built.clear()
        loaded = [load_trace_json(tmp_path / "trace.json"), load_trace_csv(tmp_path / "trace")]
        assert built == []
        assert all(len(t) == len(trace) for t in loaded)

    def test_load_then_save_is_a_fixed_point(self, tmp_path):
        trace = skewed_size_trace(duration_s=120.0)
        save_trace_json(trace, tmp_path / "a.json")
        save_trace_json(load_trace_json(tmp_path / "a.json"), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        save_trace_csv(trace, tmp_path / "a")
        save_trace_csv(load_trace_csv(tmp_path / "a"), tmp_path / "b")
        for part in ("functions", "invocations"):
            first = (tmp_path / f"a.{part}.csv").read_bytes()
            assert first == (tmp_path / f"b.{part}.csv").read_bytes()

    @pytest.mark.parametrize("time_s", [True, False, "10.0", None, [10.0]])
    def test_json_rejects_a_non_numeric_or_boolean_time(self, tmp_path, time_s):
        path = tmp_path / "trace.json"
        save_trace_json(make_trace("AB"), path)
        document = json.loads(path.read_text())
        document["invocations"][1][0] = time_s
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invocation 1: "):
            load_trace_json(path)

    def test_json_rejects_a_malformed_entry(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace_json(make_trace("AB"), path)
        document = json.loads(path.read_text())
        document["invocations"][0] = [0.0, "A", "extra"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"invocation 0: expected \[time_s, function_name\]"):
            load_trace_json(path)

    @pytest.mark.parametrize("cell", ["true", "True", "", "soon"])
    def test_csv_rejects_a_non_numeric_time(self, tmp_path, cell):
        save_trace_csv(make_trace("AB"), tmp_path / "trace")
        path = tmp_path / "trace.invocations.csv"
        path.write_text(path.read_text().replace("10.0,B", f"{cell},B"))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: invocation 1: "):
            load_trace_csv(tmp_path / "trace")

    def test_csv_function_row_nan_names_the_file_and_field(self, tmp_path):
        save_trace_csv(make_trace("AB"), tmp_path / "trace")
        path = tmp_path / "trace.functions.csv"
        path.write_text(path.read_text().replace("256.0", "nan", 1))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: function 'A': memory_mb "):
            load_trace_csv(tmp_path / "trace")

    def test_unknown_function_names_the_file(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace_json(make_trace("AB"), path)
        document = json.loads(path.read_text())
        document["invocations"][1][1] = "Z"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"unknown functions: \['Z'\]"):
            load_trace_json(path)
