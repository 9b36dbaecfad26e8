"""Tests for the grid runner, :func:`repro.sim.sweep.run_sweep`.

Every "parallel equals sequential" case runs the grid in this process
(``max_workers=1``) and on a pool of two workers (``max_workers=2``):
equal points, equal fingerprints and, where a ``trace_dir`` is given,
the same bytes in every cell's JSONL file.
"""

import multiprocessing
import os

import pytest

import repro.sim.sweep as sweep
from repro.sim.sweep import (
    FailedCell,
    cell_trace_path,
    point_fingerprint,
    run_cell,
    run_sweep,
)
from tests.conftest import make_trace

#: The pool tests that patch ``run_cell`` need workers forked from this
#: process, which inherit the patch.
forked = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must be forked to inherit a patched run_cell",
)


@pytest.fixture
def trace():
    return make_trace("ABCDABCDBCAD" * 20, gap_s=2.0)


def in_both_modes(trace, grid, **kwargs):
    """The same sweep in this process and on two workers."""
    return [
        run_sweep(trace, grid, max_workers=workers, **kwargs)
        for workers in (1, 2)
    ]


def assert_equal_grids(sequential, parallel):
    assert parallel.points == sequential.points
    assert [point_fingerprint(p) for p in parallel.points] == [
        point_fingerprint(p) for p in sequential.points
    ]
    assert parallel.failed_cells == sequential.failed_cells


class TestParallelSweep:
    def test_matches_sequential(self, trace):
        sequential, parallel = in_both_modes(
            trace, [0.5, 1.0], policies=("GD", "LRU", "TTL")
        )
        assert_equal_grids(sequential, parallel)
        assert len(sequential.points) == 6

    def test_matches_sequential_larger_grid(self, trace):
        """Equal including point *order*, across a grid wider than the
        worker count so completion order scrambles."""
        sequential, parallel = in_both_modes(
            trace, [0.25, 0.5, 1.0, 2.0], policies=("GD", "LRU", "TTL", "FREQ")
        )
        assert_equal_grids(sequential, parallel)
        assert parallel.failed_cells == []

    def test_inline_fallback(self, trace, monkeypatch):
        """The default runs the cells in this process: no pool."""

        def no_pool(*args, **kwargs):
            raise AssertionError("max_workers=1 started a process pool")

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
        result = run_sweep(trace, [1.0], policies=("GD",))
        assert [p.policy for p in result.points] == ["GD"]

    def test_grid_complete(self, trace):
        result = run_sweep(
            trace, [0.5, 1.0, 2.0], policies=("GD", "FREQ"), max_workers=2
        )
        assert len(result.points) == 6
        assert result.memory_sizes() == [0.5, 1.0, 2.0]

    def test_throughput_fields_populated(self, trace):
        for result in in_both_modes(trace, [1.0], policies=("GD",)):
            point = result.points[0]
            assert point.wall_time_s > 0.0
            assert point.invocations_per_s > 0.0

    @pytest.mark.parametrize("max_workers", [0, -3, 1.5, "2"])
    def test_max_workers_refused(self, trace, max_workers):
        with pytest.raises(ValueError, match="max_workers"):
            run_sweep(trace, [1.0], policies=("GD",), max_workers=max_workers)


class TestFaultTolerance:
    """A failing cell must cost exactly that cell, nothing else."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_bad_policy_lands_in_failed_cells(self, trace, max_workers):
        result = run_sweep(
            trace,
            [0.5, 1.0],
            policies=("GD", "NOPE"),
            max_workers=max_workers,
        )
        # The good policy's column is intact...
        good = [p for p in result.points if p.policy == "GD"]
        assert [p.memory_gb for p in good] == [0.5, 1.0]
        # ...and the bad one is reported, not raised.
        assert result.failed_cells == [
            FailedCell("NOPE", 0.5, result.failed_cells[0].error),
            FailedCell("NOPE", 1.0, result.failed_cells[1].error),
        ]
        assert "NOPE" in result.failed_cells[0].error

    def test_partial_points_match_sequential(self, trace):
        """Surviving points of a partly-failed grid equal a run of the
        surviving cells alone, in both modes."""
        whole = run_sweep(trace, [0.5, 1.0], policies=("GD", "LRU"))
        sequential, parallel = in_both_modes(
            trace, [0.5, 1.0], policies=("GD", "NOPE", "LRU")
        )
        assert_equal_grids(sequential, parallel)
        assert parallel.points == whole.points

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_require_complete_names_the_failed_cells(self, trace, max_workers):
        result = run_sweep(
            trace, [0.5], policies=("GD", "NOPE"), max_workers=max_workers
        )
        with pytest.raises(RuntimeError, match=r"1 sweep cells failed .*NOPE @ 0.5 GB"):
            result.require_complete()
        whole = run_sweep(trace, [0.5], policies=("GD",), max_workers=max_workers)
        assert whole.require_complete() is whole

    def test_progress_counts_failures_too(self, trace):
        for max_workers in (1, 2):
            calls = []
            result = run_sweep(
                trace,
                [0.5],
                policies=("GD", "NOPE", "LRU"),
                max_workers=max_workers,
                progress=lambda done, total, policy, gb: calls.append(
                    (done, total, policy, gb)
                ),
            )
            assert [c[0] for c in calls] == [1, 2, 3]
            assert all(c[1] == 3 and c[3] == 0.5 for c in calls)
            assert {c[2] for c in calls} == {"GD", "NOPE", "LRU"}
            assert len(result.points) == 2
            assert len(result.failed_cells) == 1

    def test_negative_retries_rejected(self, trace):
        with pytest.raises(ValueError, match="retries"):
            run_sweep(trace, [1.0], policies=("GD",), retries=-1)

    def test_zero_retries_still_reports_failures(self, trace):
        for result in in_both_modes(trace, [1.0], policies=("NOPE",), retries=0):
            assert result.points == []
            assert len(result.failed_cells) == 1

    @pytest.mark.parametrize("retries", [0, 1])
    def test_in_process_cell_is_retried(self, trace, monkeypatch, retries):
        """A cell that fails its first attempt only yields its point
        with one retry and is a failed cell with none."""
        attempts = []

        def flaky(trace, policy_name, memory_gb, **kwargs):
            attempts.append(policy_name)
            if attempts.count(policy_name) == 1 and policy_name == "LRU":
                raise RuntimeError("first attempt")
            return run_cell(trace, policy_name, memory_gb, **kwargs)

        monkeypatch.setattr(sweep, "run_cell", flaky)
        result = run_sweep(
            trace, [1.0], policies=("GD", "LRU"), max_workers=1, retries=retries
        )
        assert attempts == ["GD", "LRU"] + ["LRU"] * retries
        if retries:
            assert result.points == run_sweep(trace, [1.0], policies=("GD", "LRU")).points
            assert result.failed_cells == []
        else:
            assert [p.policy for p in result.points] == ["GD"]
            assert result.failed_cells == [
                FailedCell("LRU", 1.0, "RuntimeError('first attempt')")
            ]

    @forked
    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_pool_cell_is_retried(self, trace, monkeypatch, tmp_path, retries):
        """The pool counts a cell's attempts as the in-process runner
        does: LRU fails every attempt, each one leaves a file behind."""

        def failing(trace, policy_name, memory_gb, **kwargs):
            if policy_name == "LRU":
                attempt = len(list(tmp_path.iterdir()))
                (tmp_path / str(attempt)).touch()
                raise RuntimeError(f"attempt {attempt}")
            return run_cell(trace, policy_name, memory_gb, **kwargs)

        monkeypatch.setattr(sweep, "run_cell", failing)
        result = run_sweep(
            trace, [1.0], policies=("GD", "LRU"), max_workers=2, retries=retries
        )
        assert len(list(tmp_path.iterdir())) == retries + 1
        assert [p.policy for p in result.points] == ["GD"]
        assert result.failed_cells == [
            FailedCell("LRU", 1.0, f"RuntimeError('attempt {retries}')")
        ]

    @forked
    def test_a_crashed_pool_is_rebuilt_without_using_a_retry(
        self, trace, monkeypatch, tmp_path
    ):
        """LRU's first attempt kills its worker: the pool is rebuilt and
        LRU runs again, though it has no retry left."""
        crashed = tmp_path / "crashed"

        def crash_once(trace, policy_name, memory_gb, **kwargs):
            if policy_name == "LRU" and not crashed.exists():
                crashed.touch()
                os._exit(1)
            return run_cell(trace, policy_name, memory_gb, **kwargs)

        expected = run_sweep(trace, [0.5, 1.0], policies=("GD", "LRU", "TTL"))
        monkeypatch.setattr(sweep, "run_cell", crash_once)
        calls = []
        result = run_sweep(
            trace, [0.5, 1.0], policies=("GD", "LRU", "TTL"), max_workers=2,
            retries=0, progress=lambda *call: calls.append(call),
        )
        assert crashed.exists()
        assert_equal_grids(expected, result)
        assert sorted(c[0] for c in calls) == [1, 2, 3, 4, 5, 6]

    @forked
    def test_a_cell_that_keeps_crashing_is_quarantined(self, trace, monkeypatch):
        """A cell that kills every worker it lands on fails alone, in its
        own pool, after the rebuilds; its neighbours keep their points."""

        def poisoned(trace, policy_name, memory_gb, **kwargs):
            if policy_name == "LRU":
                os._exit(1)
            return run_cell(trace, policy_name, memory_gb, **kwargs)

        expected = run_sweep(trace, [1.0], policies=("GD", "TTL"))
        monkeypatch.setattr(sweep, "run_cell", poisoned)
        result = run_sweep(
            trace, [1.0], policies=("GD", "LRU", "TTL"), max_workers=2
        )
        assert result.points == expected.points
        assert [(c.policy, c.memory_gb) for c in result.failed_cells] == [("LRU", 1.0)]
        assert "BrokenProcessPool" in result.failed_cells[0].error

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failed_cells_sorted_alike(self, trace, max_workers):
        result = run_sweep(
            trace, [1.0, 0.5], policies=("NOPE", "GD", "BAD"), max_workers=max_workers
        )
        assert [(c.policy, c.memory_gb) for c in result.failed_cells] == [
            ("BAD", 0.5), ("BAD", 1.0), ("NOPE", 0.5), ("NOPE", 1.0),
        ]


class TestSweepTracing:
    """Per-cell event traces and counter snapshots, both modes."""

    def test_counters_populated_and_engine_equal(self, trace):
        sequential, parallel = in_both_modes(
            trace, [0.5, 1.0], policies=("GD", "TTL")
        )
        for point in sequential.points:
            assert point.counters  # snapshot always filled
            assert point.counters["warm_starts"] >= 0
        assert [p.counters for p in parallel.points] == [
            p.counters for p in sequential.points
        ]
        totals = sequential.total_counters()
        assert totals["warm_starts"] == sum(
            p.counters["warm_starts"] for p in sequential.points
        )

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_trace_dir_writes_per_cell_files(
        self, trace, tmp_path, max_workers
    ):
        result = run_sweep(
            trace, [0.5, 1.0], policies=("GD", "LRU"),
            max_workers=max_workers, trace_dir=str(tmp_path),
        )
        assert result.failed_cells == []
        from repro.obs.report import load_report

        for point in result.points:
            path = cell_trace_path(tmp_path, point.policy, point.memory_gb)
            assert path.exists()
            # Counters rebuilt from the cell's event file equal the
            # cell's snapshot: per-worker sinks lost nothing.
            assert load_report(path).counters() == dict(point.counters)

    def test_sequential_trace_dir_matches_parallel_layout(
        self, trace, tmp_path
    ):
        """Each cell's file is the same bytes in both modes: container
        ids restart with every cell, whichever process runs it."""
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        grid, policies = [0.5, 1.0], ("GD", "LRU", "HIST")
        sequential = run_sweep(trace, grid, policies=policies, trace_dir=str(seq_dir))
        parallel = run_sweep(
            trace, grid, policies=policies, max_workers=2, trace_dir=str(par_dir)
        )
        assert_equal_grids(sequential, parallel)
        names = sorted(p.name for p in seq_dir.iterdir())
        assert names == sorted(p.name for p in par_dir.iterdir())
        assert len(names) == 6
        for name in names:
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()


class TestRunSweep:
    def test_grid_is_complete(self):
        trace = make_trace("ABCABCAB" * 5, gap_s=1.0)
        result = run_sweep(trace, [0.5, 1.0], policies=("GD", "LRU"))
        assert len(result.points) == 4
        assert set(result.policies()) == {"GD", "LRU"}
        assert result.memory_sizes() == [0.5, 1.0]

    def test_series_sorted_by_memory(self):
        trace = make_trace("ABAB" * 5, gap_s=1.0)
        result = run_sweep(trace, [2.0, 1.0], policies=("GD",))
        series = result.series("GD", "cold_start_pct")
        assert [m for m, __ in series] == [1.0, 2.0]

    def test_more_memory_never_hurts_resource_conserving_policy(self):
        trace = make_trace("ABCDEABCDE" * 10, gap_s=2.0)
        result = run_sweep(trace, [0.25, 0.5, 1.0, 2.0], policies=("GD",))
        series = result.series("GD", "cold_start_pct")
        values = [v for __, v in series]
        assert values == sorted(values, reverse=True)

    def test_best_policy_at(self):
        trace = make_trace("ABAB" * 5, gap_s=1.0)
        result = run_sweep(trace, [1.0], policies=("GD", "LRU"))
        best = result.best_policy_at(1.0, "cold_start_pct")
        assert best in ("GD", "LRU")
        with pytest.raises(ValueError):
            result.best_policy_at(9.0, "cold_start_pct")

    def test_progress_callback(self):
        trace = make_trace("AB", gap_s=1.0)
        calls = []
        run_sweep(
            trace, [1.0], policies=("GD", "LRU"),
            progress=lambda *call: calls.append(call),
        )
        assert calls == [(1, 2, "GD", 1.0), (2, 2, "LRU", 1.0)]

    def test_cells_are_independent(self):
        """Policy state must not leak between sweep cells."""
        trace = make_trace("ABCABC" * 10, gap_s=1.0)
        once = run_sweep(trace, [1.0], policies=("GD",))
        twice = run_sweep(trace, [1.0, 1.0], policies=("GD",))
        assert (
            once.points[0].cold_start_pct
            == twice.points[0].cold_start_pct
            == twice.points[1].cold_start_pct
        )
