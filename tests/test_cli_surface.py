"""The command line's surface, pinned as a table.

Every option of every ``repro-faascache`` subcommand, with its
``nargs``, ``choices``, ``required`` and parsed default, is asserted
against the literal table below: a refactor of how the parser is built
must leave what a user can type, and what it parses to, unchanged.
``type`` and ``dest`` are deliberately not pinned. ``check`` hands its
arguments to the linter's own parser.

The second half parses full command lines taken from CI's ``trace`` /
``sweep`` runs and asserts the run configuration and policy keywords
they reach the simulator with.
"""

import argparse
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.faults import load_fault_spec
from repro.sim.config import RunConfig

REQ = "<required>"
TENANT_MODES = ("shared", "partitioned", "quota")
TENANT_FLAGS = {
    "--tenant-mode": (None, TENANT_MODES, False, "shared"),
    "--tenant-quota": ("*", None, False, None),
    "--tenant-weights": ("*", None, False, None),
}

#: subcommand -> option -> (nargs, choices, required, parsed default).
SURFACE = {
    "generate": {
        "--functions": (None, None, False, 1000),
        "--max-daily-invocations": (None, None, False, 20000),
        "--seed": (None, None, False, 0),
        "--sample": (None, ("full", "rare", "representative", "random"), False, "representative"),
        "--sample-size": (None, None, False, 400),
        "--out": (None, None, True, REQ),
    },
    "simulate": {
        "--trace": (None, None, True, REQ),
        "--policy": (None, None, False, "GD"),
        "--memory-gb": (None, None, False, 16.0),
        "--warmup-s": (None, None, False, 0.0),
        "--reserve": ("*", None, False, None),
        "--trace-out": (None, None, False, None),
        "--metrics-out": (None, None, False, None),
        "--fault-spec": (None, None, False, None),
        **TENANT_FLAGS,
        "--sanitize": (0, None, False, False),
    },
    "sweep": {
        "--trace": (None, None, True, REQ),
        "--memory-gb": ("+", None, True, REQ),
        "--policies": ("*", None, False, None),
        "--metric": (
            None,
            ("exec_time_increase_pct", "cold_start_pct", "drop_ratio"),
            False,
            "exec_time_increase_pct",
        ),
        "--workers": (None, None, False, None),
        "--quiet": (0, None, False, False),
        "--trace-dir": (None, None, False, None),
        "--metrics-out": (None, None, False, None),
        "--fault-spec": (None, None, False, None),
        **TENANT_FLAGS,
        "--sanitize": (0, None, False, False),
    },
    "provision": {
        "--trace": (None, None, True, REQ),
        "--target-hit-ratio": (None, None, False, 0.9),
    },
    "autoscale": {
        "--trace": (None, None, True, REQ),
        "--miss-ratio": (None, None, False, 0.05),
        "--period-s": (None, None, False, 600.0),
        "--policy": (None, None, False, "GD"),
    },
    "plan": {
        "--trace": (None, None, True, REQ),
        "--out": (None, None, False, None),
    },
    "characterize": {"--trace": (None, None, True, REQ)},
    "balancers": {
        "--trace": (None, None, True, REQ),
        "--servers": (None, None, False, 4),
        "--server-memory-gb": (None, None, False, 4.0),
        "--policy": (None, None, False, "GD"),
    },
    "loadtest": {
        "--workload": (None, None, False, "cyclic"),
        "--memory-gb": (None, None, False, 1.625),
        "--cores": (None, None, False, 8),
    },
    "trace": {
        "--trace": (None, None, True, REQ),
        "--policy": (None, None, False, "GD"),
        "--memory-gb": (None, None, False, 16.0),
        "--out": (None, None, True, REQ),
        "--summary-json": (None, None, False, None),
        "--metrics-out": (None, None, False, None),
        "--strict": (0, None, False, False),
        "--fault-spec": (None, None, False, None),
        **TENANT_FLAGS,
        "--sanitize": (0, None, False, False),
    },
    "trace-report": {
        "trace_file": (None, None, True, REQ),
        "--check": (None, None, False, None),
        "--function": (None, None, False, None),
        "--top": (None, None, False, 10),
    },
    "serve": {
        "--trace": (None, None, True, REQ),
        "--policy": (None, None, False, "GD"),
        "--memory-gb": (None, None, False, 16.0),
        "--host": (None, None, False, "127.0.0.1"),
        "--port": (None, None, False, 8077),
        "--clock": (None, ("real", "sim"), False, "real"),
        "--tick-interval-s": (None, None, False, 0.25),
        "--trace-out": (None, None, False, None),
        "--metrics-out": (None, None, False, None),
        **TENANT_FLAGS,
    },
    "loadgen": {
        "--trace": (None, None, True, REQ),
        "--host": (None, None, False, "127.0.0.1"),
        "--port": (None, None, False, 8077),
        "--mode": (None, ("pipeline", "openloop"), False, "pipeline"),
        "--connections": (None, None, False, 4),
        "--window": (None, None, False, 256),
        "--speed": (None, None, False, 3600.0),
        "--duration-s": (None, None, False, None),
        "--limit": (None, None, False, None),
        "--real-clock": (0, None, False, False),
        "--check-consistency": (0, None, False, False),
        "--max-p99-ms": (None, None, False, None),
        "--json-out": (None, None, False, None),
    },
}

#: Subcommands whose every flag belongs to another module's parser.
FORWARDED = ("check",)


def surface(parser):
    """``parser``'s options as the table rows above; a required option
    or a positional reads :data:`REQ` (it has no default to parse)."""
    actions = [
        a for a in parser._actions if not isinstance(a, argparse._HelpAction)
    ]
    argv = []
    for action in actions:
        if not action.option_strings:
            argv.append("1")
        elif action.required:
            argv += [action.option_strings[0], "1"]
    namespace = parser.parse_args(argv)
    return {
        "/".join(a.option_strings) or a.dest: (
            a.nargs,
            tuple(a.choices) if a.choices is not None else None,
            a.required,
            REQ if a.required or not a.option_strings
            else getattr(namespace, a.dest),
        )
        for a in actions
    }


def subcommands():
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


class TestSurface:
    def test_subcommand_names(self):
        assert sorted(subcommands()) == sorted([*SURFACE, *FORWARDED])

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options(self, command):
        assert surface(subcommands()[command]) == SURFACE[command]


ROOT = pathlib.Path(__file__).resolve().parents[1]
FAULT_SPEC = str(ROOT / "examples" / "fault_spec.json")
HARVEST_SPEC = str(ROOT / "examples" / "harvest_spec.json")


class _Reached(BaseException):
    """Raised where a command line reaches the simulator, carrying the
    policy, pool size, run configuration and policy keywords it got
    there with (a ``BaseException``, so no cell's error handling keeps
    it)."""


def _reached_simulate(trace, policy, memory_mb, config=None, tracer=None, **kwargs):
    raise _Reached(policy, memory_mb, config, kwargs)


def _reached_cell(trace, policy, memory_gb, config=None, policy_kwargs=None, **kwargs):
    raise _Reached(policy, memory_gb * 1024.0, config, dict(policy_kwargs or {}))


@pytest.fixture
def reach(monkeypatch, tmp_path):
    """Run a command line up to the simulator; what it reached it with."""
    import repro.sim.parallel
    import repro.sim.scheduler
    import repro.sim.sweep

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    monkeypatch.setattr(repro.sim.scheduler, "simulate", _reached_simulate)
    monkeypatch.setattr(repro.sim.sweep, "run_cell", _reached_cell)
    monkeypatch.setattr(repro.sim.parallel, "run_cell", _reached_cell)

    def run(line):
        with pytest.raises(_Reached) as reached:
            main(line.split())
        return reached.value.args

    return run


class TestCommandLines:
    def test_chaos_trace(self, reach):
        assert reach(
            "trace --trace skewed-frequency --policy GD --memory-gb 1 --strict "
            f"--fault-spec {FAULT_SPEC} --out chaos_a.jsonl "
            "--summary-json chaos_a.json --metrics-out chaos_a.prom"
        ) == ("GD", 1024.0, RunConfig(fault_spec=load_fault_spec(FAULT_SPEC)), {})

    def test_sanitized_harvest_trace(self, reach):
        assert reach(
            "trace --trace harvest-day --policy HYPERBOLIC --memory-gb 8 "
            f"--strict --sanitize --fault-spec {HARVEST_SPEC} "
            "--out hyperbolic_a.jsonl --summary-json hyperbolic_a.json "
            "--metrics-out hyperbolic_a.prom"
        ) == (
            "HYPERBOLIC", 8192.0,
            RunConfig(fault_spec=load_fault_spec(HARVEST_SPEC)), {},
        )

    def test_tenant_quota_trace(self, reach):
        assert reach(
            "trace --trace noisy-neighbor --policy GD --memory-gb 4 "
            "--tenant-mode quota --tenant-quota 1=1024 --strict "
            "--out tenant.jsonl --summary-json tenant.json"
        ) == (
            "GD", 4096.0,
            RunConfig(tenant_mode="quota", tenant_quotas={1: 1024.0}), {},
        )

    def test_simulate_config_and_weights(self, reach):
        assert reach(
            "simulate --trace multitenant --policy GD --memory-gb 1 "
            "--warmup-s 100 --reserve fn=2 --tenant-weights 1=2.0 2=0.5"
        ) == (
            "GD", 1024.0,
            RunConfig(warmup_s=100.0, reserved_concurrency={"fn": 2}),
            {"tenant_weights": {1: 2.0, 2: 0.5}},
        )

    def test_fault_sweep(self, reach):
        assert reach(
            "sweep --trace cyclic --memory-gb 1 2 --policies GD TTL "
            f"--fault-spec {FAULT_SPEC} --metrics-out serial.prom"
        ) == ("GD", 1024.0, RunConfig(fault_spec=load_fault_spec(FAULT_SPEC)), {})

    def test_sanitized_harvest_sweep(self, reach):
        assert reach(
            "sweep --trace harvest-day --memory-gb 8 --policies GD "
            f"--fault-spec {HARVEST_SPEC} --metrics-out harvest_day_loop.prom "
            "--sanitize"
        ) == ("GD", 8192.0, RunConfig(fault_spec=load_fault_spec(HARVEST_SPEC)), {})

    def test_weighted_sweep(self, reach):
        assert reach(
            "sweep --trace multitenant --memory-gb 2 --policies GD "
            "--tenant-mode partitioned --tenant-weights 1=3"
        ) == (
            "GD", 2048.0, RunConfig(tenant_mode="partitioned"),
            {"tenant_weights": {1: 3.0}},
        )
