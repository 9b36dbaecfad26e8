"""Tests for the parallel sweep runner."""

import pytest

from repro.sim.parallel import run_sweep_parallel
from repro.sim.sweep import FailedCell, cell_trace_path, run_cell, run_sweep
from tests.conftest import make_trace


@pytest.fixture
def trace():
    return make_trace("ABCDABCDBCAD" * 20, gap_s=2.0)


class TestParallelSweep:
    def test_matches_sequential(self, trace):
        grid = [0.5, 1.0]
        policies = ("GD", "LRU", "TTL")
        sequential = run_sweep(trace, grid, policies=policies)
        parallel = run_sweep_parallel(
            trace, grid, policies=policies, max_workers=2
        )
        seq = {(p.policy, p.memory_gb): p for p in sequential.points}
        par = {(p.policy, p.memory_gb): p for p in parallel.points}
        assert set(seq) == set(par)
        for key in seq:
            assert seq[key] == par[key]

    def test_matches_sequential_larger_grid(self, trace):
        """Bit-identity including point *order*, across a grid wider
        than the worker count so completion order scrambles."""
        grid = [0.25, 0.5, 1.0, 2.0]
        policies = ("GD", "LRU", "TTL", "FREQ")
        sequential = run_sweep(trace, grid, policies=policies)
        parallel = run_sweep_parallel(
            trace, grid, policies=policies, max_workers=3
        )
        assert parallel.points == sequential.points
        assert parallel.failed_cells == []

    def test_inline_fallback(self, trace):
        result = run_sweep_parallel(
            trace, [1.0], policies=("GD",), max_workers=1
        )
        assert len(result.points) == 1
        assert result.points[0].policy == "GD"

    def test_grid_complete(self, trace):
        result = run_sweep_parallel(
            trace, [0.5, 1.0, 2.0], policies=("GD", "FREQ"), max_workers=2
        )
        assert len(result.points) == 6
        assert result.memory_sizes() == [0.5, 1.0, 2.0]

    def test_throughput_fields_populated(self, trace):
        result = run_sweep_parallel(
            trace, [1.0], policies=("GD",), max_workers=2
        )
        point = result.points[0]
        assert point.wall_time_s > 0.0
        assert point.invocations_per_s > 0.0


class TestFaultTolerance:
    """A failing cell must cost exactly that cell, nothing else."""

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_bad_policy_lands_in_failed_cells(self, trace, max_workers):
        result = run_sweep_parallel(
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
        """Surviving points of a partly-failed grid are still
        bit-identical to a sequential run of the surviving cells."""
        parallel = run_sweep_parallel(
            trace, [0.5, 1.0], policies=("GD", "NOPE", "LRU"), max_workers=2
        )
        sequential = run_sweep(trace, [0.5, 1.0], policies=("GD", "LRU"))
        assert parallel.points == sequential.points

    def test_progress_counts_failures_too(self, trace):
        calls = []
        result = run_sweep_parallel(
            trace,
            [0.5],
            policies=("GD", "NOPE", "LRU"),
            max_workers=2,
            progress=lambda done, total, policy, gb: calls.append(
                (done, total, policy, gb)
            ),
        )
        assert len(calls) == 3
        assert [c[0] for c in sorted(calls)] == [1, 2, 3]
        assert all(c[1] == 3 for c in calls)
        assert {c[2] for c in calls} == {"GD", "NOPE", "LRU"}
        assert len(result.points) == 2
        assert len(result.failed_cells) == 1

    def test_negative_retries_rejected(self, trace):
        with pytest.raises(ValueError, match="retries"):
            run_sweep_parallel(trace, [1.0], policies=("GD",), retries=-1)

    def test_zero_retries_still_reports_failures(self, trace):
        result = run_sweep_parallel(
            trace, [1.0], policies=("NOPE",), max_workers=2, retries=0
        )
        assert result.points == []
        assert len(result.failed_cells) == 1

    @pytest.mark.parametrize("retries", [0, 1])
    def test_in_process_cell_is_retried(self, trace, monkeypatch, retries):
        """The in-process path retries a failing cell as the pool does:
        a cell that fails its first attempt only yields its point with
        one retry and is a failed cell with none."""
        import repro.sim.parallel as parallel

        attempts = []

        def flaky(trace, policy_name, memory_gb, **kwargs):
            attempts.append(policy_name)
            if attempts.count(policy_name) == 1 and policy_name == "LRU":
                raise RuntimeError("first attempt")
            return run_cell(trace, policy_name, memory_gb, **kwargs)

        monkeypatch.setattr(parallel, "run_cell", flaky)
        result = run_sweep_parallel(
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

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_failed_cells_sorted_alike(self, trace, max_workers):
        result = run_sweep_parallel(
            trace, [1.0, 0.5], policies=("NOPE", "GD", "BAD"), max_workers=max_workers
        )
        assert [(c.policy, c.memory_gb) for c in result.failed_cells] == [
            ("BAD", 0.5), ("BAD", 1.0), ("NOPE", 0.5), ("NOPE", 1.0),
        ]


class TestSweepTracing:
    """Per-cell event traces and counter snapshots, both engines."""

    def test_counters_populated_and_engine_equal(self, trace):
        grid = [0.5, 1.0]
        policies = ("GD", "TTL")
        sequential = run_sweep(trace, grid, policies=policies)
        parallel = run_sweep_parallel(
            trace, grid, policies=policies, max_workers=2
        )
        for point in sequential.points:
            assert point.counters  # snapshot always filled
            assert point.counters["warm_starts"] >= 0
        seq = {(p.policy, p.memory_gb): p.counters
               for p in sequential.points}
        par = {(p.policy, p.memory_gb): p.counters
               for p in parallel.points}
        assert seq == par
        totals = sequential.total_counters()
        assert totals["warm_starts"] == sum(
            p.counters["warm_starts"] for p in sequential.points
        )

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_trace_dir_writes_per_cell_files(
        self, trace, tmp_path, max_workers
    ):
        grid = [0.5, 1.0]
        policies = ("GD", "LRU")
        result = run_sweep_parallel(
            trace, grid, policies=policies,
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
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        run_sweep(trace, [0.5], policies=("GD",), trace_dir=str(seq_dir))
        run_sweep_parallel(
            trace, [0.5], policies=("GD",),
            max_workers=2, trace_dir=str(par_dir),
        )
        assert [p.name for p in sorted(seq_dir.iterdir())] == [
            p.name for p in sorted(par_dir.iterdir())
        ]

    def test_tracer_object_rejected_with_multiprocess_workers(self, trace):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        tracer = Tracer(RingBufferSink())
        with pytest.raises(ValueError, match="process-local"):
            run_sweep_parallel(
                trace, [0.5], policies=("GD",), tracer=tracer
            )
        with pytest.raises(ValueError, match="process-local"):
            run_sweep_parallel(
                trace, [0.5], policies=("GD",),
                max_workers=4, tracer=tracer,
            )

    def test_tracer_object_allowed_inline(self, trace):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        sink = RingBufferSink()
        result = run_sweep_parallel(
            trace, [0.5], policies=("GD",),
            max_workers=1, tracer=Tracer(sink),
        )
        assert len(result.points) == 1
        assert sink.total_emitted > 0
        # Cell coordinates are bound onto every event.
        event = next(iter(sink))
        assert event["policy"] == "GD"
        assert event["memory_gb"] == 0.5

    def test_tracer_and_trace_dir_mutually_exclusive(self, trace, tmp_path):
        from repro.obs.sinks import RingBufferSink
        from repro.obs.tracer import Tracer

        with pytest.raises(ValueError, match="not both"):
            run_sweep_parallel(
                trace, [0.5], policies=("GD",), max_workers=1,
                tracer=Tracer(RingBufferSink()),
                trace_dir=str(tmp_path),
            )
