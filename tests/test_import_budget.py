"""An exact module budget for the tool's own cold start.

The module-set analogue of ``test_hot_path_budget.py``: what a fresh
interpreter loads to host each entry point, counted in ``sys.modules``
— no clock anywhere, so it repeats exactly. Every package ``__init__``
re-exports through :func:`repro._lazy.lazy_exports` (DESIGN.md, "Lazy
package namespaces"); a top-level import of a sibling package put back
into one of them, or a new edge from the engine into the analyzer or
the CLI, fails here instead of showing up as 0.1 s of ``setup_s``.

Every case runs in its own interpreter: this process has long since
imported everything.
"""

import ast
import importlib
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.sim.config import RunConfig
from repro.sim.scheduler import simulate
from repro.traces.synth import skewed_frequency_trace

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Packages whose ``__init__`` only re-exports (``core.policies`` and
#: ``checks.rules`` register by import and stay eager).
LAZY_PACKAGES = ("repro",) + tuple(
    f"repro.{name}" for name in (
        "core", "sim", "traces", "obs", "faults", "checks",
        "provisioning", "analysis", "cluster", "openwhisk", "live",
    )
)

#: benchmarks/ledger/run.py's ``_IMPORT_PROBE``: the modules behind the
#: replay entry points.
REPLAY_PROBE = "import repro.sim.scheduler, repro.sim.columnar, repro.traces.streaming"
#: ``repro.*`` modules (``repro`` itself included) the probe loads: 8
#: lazy package ``__init__``s and the helper, the engine (``core`` 3;
#: ``core.policies`` 17, registered by import), ``sim`` 5 (``events``
#: since the simulator keeps its timeline on ``EventQueue``: stdlib
#: ``heapq`` / ``itertools`` only), ``traces`` 3, ``faults`` 2, ``obs``
#: 4 (tracer, its sink base and schema, the counter table),
#: ``checks.sanitize`` and ``analysis.stats`` (HIST's Welford). PR 22's
#: parent loaded 88. Lower it after a real cut; raising it needs the
#: ``setup_s`` row that paid for it.
REPLAY_PROBE_MODULES = 45
REPLAY_PROBE_FORBIDDEN = (
    "repro.checks.linter", "repro.checks.dataflow", "repro.provisioning",
    "repro.cluster", "repro.openwhisk", "repro.live", "repro.traces.azure",
    "repro.obs.report", "argparse", "multiprocessing", "concurrent.futures",
)

#: What ``repro-faascache serve`` runs before it announces its port,
#: minus the socket: the CLI module, a registry, the service, one
#: decision and the HTTP frontend.
SERVE_PATH = """
import repro.cli
from repro.core.clock import SimClock
from repro.live.server import LiveHTTPServer
from repro.live.service import LivePoolService
trace = repro.cli._load_trace("skewed-frequency")
service = LivePoolService(trace, "GD", 2048.0, clock=SimClock())
assert service.admit(service.function_names()[0], now_s=0.0).outcome == "cold"
LiveHTTPServer(service, port=0)
"""
CLI_HELP = """
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit:
    pass
"""


def fresh(code, stdin=None, **env):
    """Run ``code`` in a new interpreter on this tree; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env), timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def loaded_after(code):
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    out = fresh(code + "\nimport sys\nprint('MODULES', *sorted(sys.modules))")
    return set(out.rsplit("MODULES", 1)[1].split())


def ours(modules):
    return sorted(m for m in modules if m == "repro" or m.startswith("repro."))


class TestModuleBudget:
    def test_replay_probe(self):
        modules = loaded_after(REPLAY_PROBE)
        assert not modules.intersection(REPLAY_PROBE_FORBIDDEN)
        assert len(ours(modules)) == REPLAY_PROBE_MODULES, ours(modules)

    def test_serve_path_loads_no_numpy_and_no_linter(self):
        modules = loaded_after(SERVE_PATH)
        assert "repro.live.server" in modules
        assert not modules.intersection(
            ("numpy", "repro.checks.linter", "repro.traces.columnar")
        ), ours(modules)

    def test_cli_help_loads_the_cli_alone(self):
        modules = loaded_after(CLI_HELP)
        assert "numpy" not in modules
        assert ours(modules) == [
            "repro", "repro._lazy", "repro.analysis",
            "repro.analysis.reporting", "repro.cli",
        ]


def static_reexports(package):
    """``(module, name)`` of every import a package ``__init__`` keeps
    under ``if TYPE_CHECKING:`` — what an eager import would bind."""
    tree = ast.parse(pathlib.Path(package.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    )
    return [
        (node.module, alias.name)
        for node in block.body for alias in node.names
    ]


class TestSurface:
    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_all_table_and_static_imports_agree(self, package_name):
        package = importlib.import_module(package_name)
        static = static_reexports(package)
        names = [name for __, name in static]
        assert sorted(names) == sorted(set(package.__all__) - {"__version__"})
        for module, name in static:
            eager = getattr(importlib.import_module(module), name)
            assert getattr(package, name) is eager, (package_name, name)
            assert vars(package)[name] is eager  # cached: resolved once
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_dir_and_unknown_attribute(self):
        out = fresh(
            "import repro\n"
            "listed = set(dir(repro))\n"
            "from repro import *\n"
            "assert all(name in listed and name in globals() for name in repro.__all__)\n"
            "assert simulate is repro.sim.scheduler.simulate\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert out.strip() == "module 'repro' has no attribute 'no_such_name'"

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_importing_a_package_loads_no_sibling(self, package_name):
        loaded = ours(loaded_after(f"import {package_name}"))
        parents = {package_name.rsplit(".", n)[0] for n in range(2)}
        assert set(loaded) == parents | {"repro", "repro._lazy"}

    def test_pickles_load_in_an_interpreter_that_imported_only_repro(self):
        config = RunConfig(warmup_s=5.0, tenant_mode="quota")
        result = simulate(skewed_frequency_trace(seed=1), "GD", 2048.0)
        out = fresh(
            "import pickle, sys, repro\n"
            "config, result = pickle.load(sys.stdin.buffer)\n"
            "print(type(config).__module__, config.warmup_s, config.tenant_mode)\n"
            "print(type(result).__module__, result.metrics.served)\n",
            stdin=pickle.dumps((config, result)),
        )
        assert out.split() == [
            "repro.sim.config", "5.0", "quota",
            "repro.sim.scheduler", str(result.metrics.served),
        ]


class TestSanitizerLoadedLate:
    """The sanitizer's report sink loads on first use; it must still
    bite when armed after import, in a process whose first ``repro``
    import was the engine."""

    BROKEN_COUNTER = """
import repro.sim.scheduler as scheduler
import sys
assert "repro.obs.report" not in sys.modules
{arm}
from repro.core.policies.base import create_policy
from repro.traces.synth import skewed_frequency_trace
sim = scheduler.KeepAliveSimulator(skewed_frequency_trace(seed=1), create_policy("GD"), 2048.0)
assert type(sim._tracer.sink).__name__ == "ReportSink"
sim.metrics.cold_starts += 1  # diverge from the event stream
try:
    sim.run()
except AssertionError as exc:
    print(type(exc).__name__, exc)
"""

    @pytest.mark.parametrize("arm", [
        "import os; os.environ['REPRO_SANITIZE'] = '1'",
        "from repro.checks.sanitize import set_sanitize; set_sanitize(True)",
        "from repro.cli import _apply_sanitize; from argparse import Namespace\n"
        "_apply_sanitize(Namespace(sanitize=True))",
    ], ids=["env", "set_sanitize", "cli-flag"])
    def test_broken_counter_raises(self, arm):
        out = fresh(self.BROKEN_COUNTER.format(arm=arm), REPRO_SANITIZE="")
        assert out.startswith("SanitizeError trace/metrics counter equality violated")
