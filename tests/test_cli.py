"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.traces.io import save_trace_json
from tests.conftest import make_trace


@pytest.fixture
def small_trace_file(tmp_path):
    path = tmp_path / "trace.json"
    code = main(
        [
            "generate",
            "--functions", "150",
            "--max-daily-invocations", "500",
            "--sample", "representative",
            "--sample-size", "40",
            "--seed", "5",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in (
            ["generate", "--out", "x.json"],
            ["simulate", "--trace", "t"],
            ["sweep", "--trace", "t", "--memory-gb", "1"],
            ["provision", "--trace", "t"],
            ["autoscale", "--trace", "t"],
            ["loadtest"],
            ["serve", "--trace", "t"],
            ["loadgen", "--trace", "t"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)


class TestGenerate:
    def test_writes_loadable_trace(self, small_trace_file):
        from repro.traces.io import load_trace_json

        trace = load_trace_json(small_trace_file)
        assert trace.num_functions <= 40
        assert len(trace) > 0

    def test_full_sample(self, tmp_path):
        out = tmp_path / "full.json"
        code = main(
            [
                "generate",
                "--functions", "60",
                "--max-daily-invocations", "200",
                "--sample", "full",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


class TestCommands:
    def test_simulate(self, small_trace_file, capsys):
        code = main(
            [
                "simulate",
                "--trace", str(small_trace_file),
                "--policy", "GD",
                "--memory-gb", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warm_starts" in out
        assert "GD" in out

    def test_simulate_builtin_workload(self, capsys):
        code = main(
            ["simulate", "--trace", "cyclic", "--policy", "LRU",
             "--memory-gb", "2"]
        )
        assert code == 0
        assert "LRU" in capsys.readouterr().out

    def test_sweep(self, small_trace_file, capsys):
        code = main(
            [
                "sweep",
                "--trace", str(small_trace_file),
                "--memory-gb", "2", "4",
                "--policies", "GD", "TTL",
                "--metric", "cold_start_pct",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GD" in out and "TTL" in out
        assert "cold_start_pct" in out

    def test_provision(self, small_trace_file, capsys):
        code = main(["provision", "--trace", str(small_trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "working set" in out
        assert "inflection" in out

    def test_autoscale(self, small_trace_file, capsys):
        code = main(
            [
                "autoscale",
                "--trace", str(small_trace_file),
                "--miss-ratio", "0.1",
                "--period-s", "1200",
            ]
        )
        assert code == 0
        assert "Saving" in capsys.readouterr().out

    def test_loadtest(self, capsys):
        code = main(
            ["loadtest", "--workload", "cyclic", "--memory-gb", "1.625"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OpenWhisk" in out and "FaasCache" in out


class TestNewCommands:
    def test_characterize(self, small_trace_file, capsys):
        code = main(["characterize", "--trace", str(small_trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "popularity Gini" in out
        assert "diurnal peak/mean" in out

    def test_characterize_builtin(self, capsys):
        code = main(["characterize", "--trace", "skewed-size"])
        assert code == 0
        assert "functions" in capsys.readouterr().out

    def test_balancers(self, small_trace_file, capsys):
        code = main(
            [
                "balancers",
                "--trace", str(small_trace_file),
                "--servers", "2",
                "--server-memory-gb", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hash-affinity" in out
        assert "affinity-spillover" in out

    def test_plan(self, small_trace_file, capsys, tmp_path):
        out = tmp_path / "plan.md"
        code = main(
            ["plan", "--trace", str(small_trace_file), "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# Capacity plan:")
        assert "**(recommended)**" in text

    def test_plan_stdout(self, capsys):
        code = main(["plan", "--trace", "skewed-size"])
        assert code == 0
        assert "Sizing options" in capsys.readouterr().out


class TestSweepEngineCLI:
    def test_parallel_sweep_matches_sequential_table(
        self, small_trace_file, capsys
    ):
        argv = [
            "sweep",
            "--trace", str(small_trace_file),
            "--memory-gb", "1", "2",
            "--policies", "GD", "LRU",
        ]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--quiet"]) == 0
        parallel = capsys.readouterr().out

        def table_lines(text):
            return [
                line for line in text.splitlines()
                if "cells in" not in line
            ]

        assert table_lines(parallel) == table_lines(sequential)

    def test_failed_cells_render_partial_table(
        self, small_trace_file, capsys
    ):
        code = main(
            [
                "sweep",
                "--trace", str(small_trace_file),
                "--memory-gb", "1",
                "--policies", "GD", "NOPE",
                "--workers", "2",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "GD" in captured.out  # surviving column still printed
        assert "cells FAILED" in captured.err
        assert "NOPE" in captured.err

    def test_serial_sweep_reports_failed_cells(
        self, small_trace_file, capsys
    ):
        """Without --workers a bad cell is reported as with them: the
        partial table, a warning naming it and exit 1, not a traceback;
        per-cell progress goes to stderr."""
        code = main(
            [
                "sweep",
                "--trace", str(small_trace_file),
                "--memory-gb", "1",
                "--policies", "GD", "NOPE",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "GD" in captured.out
        assert "[2/2] NOPE @ 1 GB" in captured.err
        assert "cell NOPE @ 1 GB failed" in captured.err
        assert "1 cells FAILED" in captured.err

    def test_throughput_line_printed(self, small_trace_file, capsys):
        assert main(
            [
                "sweep",
                "--trace", str(small_trace_file),
                "--memory-gb", "1",
                "--policies", "GD",
            ]
        ) == 0
        assert "invocations/s" in capsys.readouterr().out

    def test_simulate_reserve_and_warmup(self, small_trace_file, capsys):
        assert main(
            [
                "simulate",
                "--trace", str(small_trace_file),
                "--policy", "DOORKEEPER",
                "--memory-gb", "1",
                "--warmup-s", "100",
            ]
        ) == 0
        assert "invocations_per_s" in capsys.readouterr().out

    def test_malformed_reserve_rejected(self, small_trace_file, capsys):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "simulate",
                    "--trace", str(small_trace_file),
                    "--policy", "GD",
                    "--memory-gb", "1",
                    "--reserve", "fn-00001",
                ]
            )
        assert exited.value.code == 2
        assert "expected NAME=COUNT" in capsys.readouterr().err


class TestObservabilityCLI:
    def test_trace_writes_events_and_summary(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        summary = tmp_path / "summary.json"
        code = main(
            [
                "trace",
                "--trace", "skewed-frequency",
                "--policy", "GD",
                "--memory-gb", "0.5",
                "--strict",
                "--out", str(events),
                "--summary-json", str(summary),
            ]
        )
        assert code == 0
        assert "invocations traced" in capsys.readouterr().out
        import json

        payload = json.loads(summary.read_text())
        assert payload["policy"] == "GD"
        assert set(payload["counters"]) == {
            "warm_starts", "cold_starts", "dropped",
            "evictions", "expirations", "prewarms",
            "faults_injected", "retries", "sheds", "server_downs",
            "capacity_shrinks", "capacity_grows", "eviction_notices",
            "deflations",
        }
        from repro.obs.sinks import read_jsonl_events

        assert sum(1 for __ in read_jsonl_events(events)) > 0

    def _traced_pair(self, tmp_path):
        events = tmp_path / "events.jsonl"
        summary = tmp_path / "summary.json"
        assert main(
            [
                "trace", "--trace", "skewed-frequency",
                "--policy", "GD", "--memory-gb", "0.5",
                "--out", str(events), "--summary-json", str(summary),
            ]
        ) == 0
        return events, summary

    def test_trace_report_renders(self, tmp_path, capsys):
        events, __ = self._traced_pair(tmp_path)
        assert main(["trace-report", str(events)]) == 0
        out = capsys.readouterr().out
        assert "lifecycle counters" in out
        assert "memory pressure" in out

    def test_trace_report_check_passes(self, tmp_path, capsys):
        events, summary = self._traced_pair(tmp_path)
        assert main(["trace-report", str(events), "--check",
                     str(summary)]) == 0
        assert "agrees" in capsys.readouterr().out

    def test_trace_report_check_detects_mismatch(self, tmp_path, capsys):
        import json

        events, summary = self._traced_pair(tmp_path)
        payload = json.loads(summary.read_text())
        payload["counters"]["cold_starts"] += 1
        summary.write_text(json.dumps(payload))
        assert main(["trace-report", str(events), "--check",
                     str(summary)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_trace_report_function_timeline(self, tmp_path, capsys):
        events, __ = self._traced_pair(tmp_path)
        from repro.obs.sinks import read_jsonl_events

        name = next(iter(read_jsonl_events(events)))["function"]
        assert main(
            ["trace-report", str(events), "--function", name]
        ) == 0
        out = capsys.readouterr().out
        assert f"timeline for {name!r}" in out
        assert "invocation_arrived" in out

    def test_trace_report_unknown_function(self, tmp_path, capsys):
        events, __ = self._traced_pair(tmp_path)
        assert main(
            ["trace-report", str(events), "--function", "nope"]
        ) == 1
        assert "never appears" in capsys.readouterr().err

    def test_simulate_trace_out_and_metrics_out(self, tmp_path, capsys):
        events = tmp_path / "sim.jsonl"
        prom = tmp_path / "sim.prom"
        code = main(
            [
                "simulate", "--trace", "cyclic",
                "--policy", "GD", "--memory-gb", "1",
                "--trace-out", str(events),
                "--metrics-out", str(prom),
            ]
        )
        assert code == 0
        assert "warm_starts" in capsys.readouterr().out
        assert events.exists()
        text = prom.read_text()
        assert "faascache_invocations_total" in text

    def test_sweep_trace_dir_and_metrics_out(self, tmp_path, capsys):
        trace_dir = tmp_path / "cells"
        prom = tmp_path / "sweep.prom"
        code = main(
            [
                "sweep", "--trace", "cyclic",
                "--memory-gb", "1", "2",
                "--policies", "GD", "TTL",
                "--trace-dir", str(trace_dir),
                "--metrics-out", str(prom),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in trace_dir.iterdir())
        assert names == [
            "GD_1GB.jsonl", "GD_2GB.jsonl",
            "TTL_1GB.jsonl", "TTL_2GB.jsonl",
        ]
        text = prom.read_text()
        assert 'policy="GD"' in text and 'policy="TTL"' in text
        assert 'memory_gb="2"' in text


class TestTenantMapValidation:
    """--tenant-weights/--tenant-quota must reject non-finite and
    negative values before they can corrupt priority math."""

    @pytest.mark.parametrize("bad", ["1=nan", "1=inf", "1=-inf", "1=-2.5"])
    def test_bad_weights_rejected(self, bad, capsys):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "simulate",
                    "--trace", "multitenant",
                    "--policy", "GD",
                    "--memory-gb", "1",
                    "--tenant-weights", bad,
                ]
            )
        assert exited.value.code == 2
        assert "the value a finite number >= 0" in capsys.readouterr().err

    def test_bad_quota_rejected(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "simulate",
                    "--trace", "multitenant",
                    "--policy", "GD",
                    "--memory-gb", "1",
                    "--tenant-mode", "quota",
                    "--tenant-quota", "1=nan",
                ]
            )
        assert exited.value.code == 2
        assert "the value a finite number >= 0" in capsys.readouterr().err

    def test_valid_weights_still_accepted(self, capsys):
        assert main(
            [
                "simulate",
                "--trace", "multitenant",
                "--policy", "GD",
                "--memory-gb", "1",
                "--tenant-weights", "1=2.0", "2=0.5",
            ]
        ) == 0
        assert "invocations_per_s" in capsys.readouterr().out

    def test_constructor_layer_rejects_nonfinite(self):
        import math

        from repro.core.policies.base import create_policy
        from repro.core.pool import ContainerPool

        with pytest.raises(ValueError, match="finite"):
            create_policy("GD", tenant_weights={1: math.nan})
        with pytest.raises(ValueError, match="finite"):
            create_policy("GD", tenant_weights={1: math.inf})
        with pytest.raises(ValueError, match="finite"):
            ContainerPool(
                1024.0,
                tenant_mode="quota",
                tenant_limits_mb={1: math.nan},
            )


class TestUsageErrors:
    @pytest.mark.parametrize("value, refusal", [
        ("NaN", "memory_mb must be a finite number > 0, got nan"),
        ('"x"', "memory_mb must be a finite number > 0, got 'x'"),
    ], ids=["nan", "string"])
    def test_a_bad_trace_file_is_a_usage_error(self, tmp_path, capsys, value, refusal):
        path = tmp_path / "trace.json"
        save_trace_json(make_trace("AB"), path)
        path.write_text(path.read_text().replace('"memory_mb": 256.0', f'"memory_mb": {value}', 1))
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--trace", str(path)])
        assert exited.value.code == 2
        assert f"{path}: function 'A': {refusal}" in capsys.readouterr().err

    def test_a_bad_fault_spec_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"crash_rate": 0.1, "max_retries": NaN}')
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--trace", "cyclic", "--fault-spec", str(path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --fault-spec: {path}: invalid fault spec: " in err
        assert "max_retries must be an integer >= 0, got nan" in err

    @pytest.mark.parametrize("command", [
        ["simulate", "--trace", "cyclic", "--memory-gb", "nan"],
        ["simulate", "--trace", "cyclic", "--memory-gb", "0"],
        ["sweep", "--trace", "cyclic", "--memory-gb", "1", "-2"],
        ["serve", "--trace", "cyclic", "--memory-gb", "nan"],
        ["loadtest", "--memory-gb", "nan"],
        ["balancers", "--trace", "cyclic", "--server-memory-gb", "0"],
    ])
    def test_gb_flags_take_sizes_above_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main(command)
        assert exited.value.code == 2
        assert "expected a number > 0 or inf, got" in capsys.readouterr().err

    @pytest.mark.parametrize("command, expected", [
        (["simulate", "--trace", "cyclic", "--warmup-s", "nan"], "a number >= 0 or inf"),
        (["autoscale", "--trace", "cyclic", "--period-s", "0"], "a finite number > 0"),
        (["autoscale", "--trace", "cyclic", "--miss-ratio", "1"], "a number in (0, 1)"),
        (["provision", "--trace", "cyclic", "--target-hit-ratio", "0"], "a number in (0, 1]"),
        (["serve", "--trace", "cyclic", "--tick-interval-s", "inf"], "a finite number >= 0"),
        (["loadgen", "--trace", "cyclic", "--max-p99-ms", "nan"], "a finite number > 0"),
        (["loadgen", "--trace", "cyclic", "--speed", "nan"], "a finite number > 0"),
        (["loadgen", "--trace", "cyclic", "--duration-s", "0"], "a number > 0 or inf"),
    ], ids=["warmup-s", "period-s", "miss-ratio", "target-hit-ratio", "tick-interval-s",
            "max-p99-ms", "speed", "duration-s"])
    def test_float_flags_take_what_their_consumer_takes(self, command, expected, capsys):
        with pytest.raises(SystemExit) as exited:
            main(command)
        assert exited.value.code == 2
        assert f"expected {expected}, got" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["-3", "two", "1.5"])
    def test_sweep_workers_is_a_count(self, workers, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--trace", "cyclic", "--memory-gb", "1",
                  "--workers", workers])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert f"expected an integer >= 0, got {workers!r}" in err
        assert "[1/" not in err

    def test_simulate_weights_on_a_policy_without_them(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--trace", "cyclic", "--policy", "LRU",
                  "--memory-gb", "1", "--tenant-weights", "0=1"])
        assert exited.value.code == 2
        assert "policy LRU takes no tenant weights" in capsys.readouterr().err

    def test_sweep_weights_refused_before_any_cell(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--trace", "cyclic", "--memory-gb", "1",
                  "--tenant-weights", "0=1"])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert "policy TTL takes no tenant weights" in err
        assert "[1/" not in err


class TestLiveCLI:
    def test_serve_and_loadgen_parsers(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--trace", "t", "--clock", "sim"])
        assert callable(serve.func) and serve.clock == "sim"
        loadgen = parser.parse_args(
            ["loadgen", "--trace", "t", "--mode", "openloop", "--port", "1"]
        )
        assert callable(loadgen.func) and loadgen.mode == "openloop"

    def test_loadgen_against_in_process_server(self, tmp_path, capsys):
        from repro.core.clock import SimClock
        from repro.live.server import ServerThread
        from repro.live.service import LivePoolService
        from repro.traces.synth import skewed_frequency_trace

        trace = skewed_frequency_trace(seed=31)
        service = LivePoolService(trace, "GD", 2048.0, clock=SimClock())
        thread = ServerThread(service).start()
        out = tmp_path / "loadgen.json"
        try:
            code = main(
                [
                    "loadgen",
                    "--trace", "skewed-frequency",
                    "--host", thread.host,
                    "--port", str(thread.port),
                    "--limit", "1000",
                    "--check-consistency",
                    "--max-p99-ms", "1000",
                    "--json-out", str(out),
                ]
            )
        finally:
            thread.stop()
        assert code == 0
        captured = capsys.readouterr().out
        assert "achieved qps" in captured
        assert "agrees with the client" in captured
        report = json.loads(out.read_text())
        assert report["completed"] == 1000
        assert report["statuses"] == {"200": 1000}
