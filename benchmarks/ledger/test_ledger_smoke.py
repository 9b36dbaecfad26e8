"""Smoke and unit tests of the ledger harness itself.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

The smoke test runs the real command at a tenth of the size (every
workload, both passes, serve children included) and holds its output
to BENCHMARK.json; the unit tests pin the two pieces of arithmetic
every number rests on: exact percentiles and span self time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from probes import Probes, SpanLedger  # noqa: E402
from stats import percentile, summary  # noqa: E402


# ----------------------------------------------------------------------
# The real command, smoke-sized
# ----------------------------------------------------------------------


def _ledger_children():
    """Command lines of live processes started on a ledger temp trace."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        argv = cmdline.split(b"\0")
        if b"repro.cli" in argv and b"serve" in argv and b".ledger_tmp_" in cmdline:
            found.append(b" ".join(argv).decode(errors="replace"))
    return found


def test_smoke_run_reports_every_named_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "report.json"
    temp_dirs_before = set(ROOT.glob(".ledger_tmp_*"))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1

    named = spec["end_to_end"] + spec["per_layer"]
    for workload in spec["workloads"]:
        for metric in named:
            key = f"{workload['name']}:{metric['name']}"
            assert key in line["metrics"], f"{key} missing from the output"
            assert line["metrics"][key]["unit"] == metric["unit"]
            assert line["metrics"][key]["value"] is not None, key
        for metric in spec["end_to_end"]:
            value = line["metrics"][f"{workload['name']}:{metric['name']}"]["value"]
            assert value > 0, f"{workload['name']}:{metric['name']} is {value}"

    (report,) = json.loads(out.read_text())
    pinned = json.loads((HERE / "EXPECTED.json").read_text())["smoke"]
    for name, entry in report["workloads"].items():
        assert entry["fail_share"] == 0, entry["problems"]
        assert entry["fingerprint"] == pinned[name]
        assert entry["probes_missing"] == []

    assert _ledger_children() == [], "a serve child outlived the run"
    left = set(ROOT.glob(".ledger_tmp_*")) - temp_dirs_before
    assert not left, f"temp traces left behind: {left}"


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command exits
    non-zero and prints no result line."""
    ledger = tmp_path / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (ledger / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, str(ledger / "run.py"), "--workload", "gd_evict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Exact percentiles
# ----------------------------------------------------------------------


def test_percentile_is_the_nearest_rank_order_statistic():
    ordered = [float(i) for i in range(1, 2001)]  # 1..2000
    assert percentile(ordered, 50) == 1000.0
    assert percentile(ordered, 99) == 1980.0
    assert percentile(ordered, 99.5) == 1990.0


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(1000)], 99) == 989.0
    assert percentile([float(i) for i in range(999)], 99) is None
    assert percentile([float(i) for i in range(20)], 50) == 9.0
    assert percentile([float(i) for i in range(19)], 50) is None
    assert percentile([], 50) is None


def test_summary_is_median_and_quartiles():
    s = summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert s["q1"] < s["median"] < s["q3"]
    assert summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------


class FakeClock:
    """Advances only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    ledger = SpanLedger(clock)

    def leaf():
        clock.now += 2.0

    probed_leaf = ledger.wrap("pool", leaf)

    def parent():
        clock.now += 1.0
        probed_leaf()
        clock.now += 0.5
        probed_leaf()

    ledger.wrap("scheduler", parent)()
    # parent spans 5.5 s, its two children cover 4 s of it
    assert ledger.self_s("scheduler") == pytest.approx(1.5)
    assert ledger.self_s("pool") == pytest.approx(4.0)
    assert (ledger.calls("scheduler"), ledger.calls("pool")) == (1, 2)
    assert ledger.raw_probed_s() == pytest.approx(5.5)


def test_nested_spans_of_one_key_do_not_count_twice():
    clock = FakeClock()
    ledger = SpanLedger(clock)

    def inner():
        clock.now += 1.0

    probed_inner = ledger.wrap("policy", inner)

    def outer():
        clock.now += 1.0
        probed_inner()

    ledger.wrap("policy", outer)()
    assert ledger.self_s("policy") == pytest.approx(2.0)
    assert ledger.calls("policy") == 2


def test_probe_cost_is_taken_out_per_span_and_per_child():
    clock = FakeClock()
    ledger = SpanLedger(clock)

    def leaf():
        clock.now += 1.0

    probed_leaf = ledger.wrap("leaf", leaf)

    def parent():
        for __ in range(3):
            probed_leaf()

    ledger.wrap("parent", parent)()
    ledger.inner_s, ledger.outer_s = 0.25, 0.5
    assert ledger.self_s("leaf") == pytest.approx(3.0 - 3 * 0.25)
    # parent's raw self time is 0: never below zero after correction
    assert ledger.self_s("parent") == 0.0


def test_a_generator_is_timed_while_it_runs_not_while_it_waits():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    closed = []

    def victims():
        try:
            for i in range(3):
                clock.now += 1.0  # the generator's own work
                yield i
        finally:
            closed.append(True)

    probed = ledger.wrap("victims", victims)
    for item in probed():
        clock.now += 10.0  # the consumer's work, between resumptions
        if item == 1:
            break
    assert ledger.self_s("victims") == pytest.approx(2.0)
    assert ledger.calls("victims") == 1
    assert closed == [True], "closing the probe must close the generator"


def test_a_missing_target_reads_null_and_is_reported():
    table = {
        "core.pool.lookup_us": {
            "idle_warm_container": [
                ("repro.core.pool", "ContainerPool", "idle_warm_container")
            ],
        },
        "core.gone_us": {
            "renamed": [("repro.core.pool", "ContainerPool", "no_such_method")],
            "moved": [("repro.no_such_module", "Thing", "method")],
        },
    }
    from repro.core.pool import ContainerPool

    original = ContainerPool.idle_warm_container
    with Probes(table) as probes:
        assert ContainerPool.idle_warm_container is not original
        assert ContainerPool.idle_warm_container.__wrapped__ is original
    assert ContainerPool.idle_warm_container is original
    assert probes.missing == ["core.gone_us:renamed", "core.gone_us:moved"]
    metrics = probes.layer_metrics(arrivals=10)
    assert metrics["core.gone_us"] is None and metrics["core.gone_calls"] is None
    assert metrics["core.pool.lookup_us"] == 0.0
