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
from repro.core.policies.base import _REGISTRY, BUILTIN_POLICIES
from repro.sim.config import RunConfig
from repro.sim.scheduler import simulate
from repro.traces.synth import skewed_frequency_trace

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Packages whose ``__init__`` only re-exports (``checks.rules``
#: registers by import and stays eager).
LAZY_PACKAGES = ("repro",) + tuple(
    f"repro.{name}" for name in (
        "core", "core.policies", "sim", "traces", "obs", "faults", "checks",
        "provisioning", "analysis", "cluster", "openwhisk", "live",
    )
)

#: benchmarks/ledger/run.py's ``_IMPORT_PROBE``: the modules behind the
#: replay entry points.
REPLAY_PROBE = "import repro.sim.scheduler, repro.sim.columnar, repro.traces.streaming"
#: ``repro.*`` modules (``repro`` itself included) the probe loads: 7
#: lazy package ``__init__``s and the helper, the engine (``core`` 3;
#: ``core.policies`` 5: the package, ``base`` and the three policies the
#: engine's fast paths name, GD, HIST and TTL), ``sim`` 5 (``events``
#: since the simulator keeps its timeline on ``EventQueue``: stdlib
#: ``heapq`` / ``itertools`` only), ``traces`` 2, ``obs`` 2 (the tracer
#: and the counter table), ``checks.sanitize``. Before the lazy
#: namespaces it loaded 88; 45 until ``traces.columnar`` merged into
#: ``Trace``; 44 until HIST kept Welford's sums in its own histogram
#: and stopped importing ``analysis`` and ``analysis.stats``. It
#: counts ``repro.*`` alone, so NumPy and ``hashlib`` leaving the probe
#: (imported by the TTL kernel, the stream generator and the fault
#: draws when they run) left it at 42: ``REPLAY_PROBE_FORBIDDEN`` holds
#: them out instead. 25 since the policies load by name, the fault
#: machinery under an enabled spec and the tracer's sinks and schema
#: with a tracer that uses them. 26 with ``repro.domains``, the stdlib-only
#: leaf that declares every numeric knob's domain (the policies, the run
#: config and the trace's functions check their knobs against it). Lower
#: it after a real cut; raising it needs the ``setup_s`` row that paid
#: for it.
REPLAY_PROBE_MODULES = 26
REPLAY_PROBE_FORBIDDEN = (
    "repro.checks.linter", "repro.checks.rules", "repro.provisioning",
    "repro.cluster", "repro.openwhisk", "repro.live", "repro.traces.azure",
    "repro.obs.report", "repro.obs.sinks", "repro.obs.events", "repro.faults",
    "argparse", "multiprocessing", "concurrent.futures", "numpy", "_hashlib",
)
#: The policy modules any replay loads: the registry and the policies
#: the engine's kernels test for.
ENGINE_POLICIES = ["base", "greedy_dual", "histogram", "ttl"]
#: What an untraced, fault-free run has no use for.
UNUSED = ("repro.faults", "repro.obs.sinks", "repro.obs.events")

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
#: ``repro.*`` modules behind :data:`SERVE_PATH`: the replay probe's 26
#: (``repro.domains`` among them) less ``sim.columnar`` and
#: ``traces.streaming``, plus the CLI and its
#: table helpers (``cli``, ``analysis``, ``analysis.reporting``), the
#: service (``live`` 4) and the built-in workloads (``traces.synth``,
#: ``traces.functionbench``). 49 while the policies, the fault
#: machinery and the tracer's sinks loaded with the engine; 32 before
#: ``repro.domains``.
SERVE_PATH_MODULES = 33
#: What :data:`SERVE_PATH` loads beside those under ``REPRO_SANITIZE=1``:
#: the sanitizer reports through a tracer sink.
SANITIZED_SERVE_EXTRA = ("repro.obs.report", "repro.obs.sinks")
#: One run through ``simulate()``'s default dispatch on a small trace
#: (four functions, gaps above their cold time), and the path it took.
SMALL_RUN = """
from repro.sim.scheduler import simulate
from repro.traces.model import Invocation, Trace, TraceFunction
functions = [TraceFunction(f"f{{i}}", 128.0, 0.2, 1.0) for i in range(4)]
trace = Trace(functions, [Invocation(10.0 * i, f"f{{i % 4}}") for i in range(40)])
assert simulate(trace, {args}).path == "{path}"
"""
CLI_HELP = """
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit:
    pass
"""


def fresh(code, stdin=None, **env):
    """Run ``code`` in a new interpreter on this tree; its stdout. A
    variable given as ``None`` is removed from the child's environment."""
    child_env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    for name in [name for name, value in env.items() if value is None]:
        child_env.pop(name, None)
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True,
        env=child_env, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def loaded_after(code, **env):
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    out = fresh(code + "\nimport sys\nprint('MODULES', *sorted(sys.modules))", **env)
    return set(out.rsplit("MODULES", 1)[1].split())


def ours(modules):
    return sorted(m for m in modules if m == "repro" or m.startswith("repro."))


class TestModuleBudget:
    def test_replay_probe(self):
        modules = loaded_after(REPLAY_PROBE)
        assert not modules.intersection(REPLAY_PROBE_FORBIDDEN)
        assert len(ours(modules)) == REPLAY_PROBE_MODULES, ours(modules)

    def test_serve_path_loads_no_numpy_and_no_linter(self):
        modules = loaded_after(SERVE_PATH, REPRO_SANITIZE=None)
        assert "repro.live.server" in modules
        # No event loop, and with it no ssl (~8 MB of the child's VmHWM);
        # no fault draw, and with it no OpenSSL through hashlib.
        assert not modules.intersection(
            ("numpy", "repro.checks.linter", "asyncio", "ssl", "_hashlib")
        ), ours(modules)
        assert len(ours(modules)) == SERVE_PATH_MODULES, ours(modules)
        # Sanitized, the same path also loads the sanitizer's report
        # sink, and nothing else.
        sanitized = loaded_after(SERVE_PATH, REPRO_SANITIZE="1")
        assert ours(sanitized) == sorted({*ours(modules), *SANITIZED_SERVE_EXTRA})

    @pytest.mark.parametrize("args, path, loads, skips", [
        ('"GD", 256.0', "gd-kernel", (), ("numpy", "_hashlib", *UNUSED)),
        ('"GD", 256.0, engine="object"', "sequential", (),
         ("numpy", "_hashlib", "repro.sim.columnar", *UNUSED)),
        ('"HIST", 512.0', "hist-kernel", (), ("numpy", "_hashlib", *UNUSED)),
        # No kernel answers LRU with the registry above the pool, and the
        # eligibility test is O(functions) and imports no kernel.
        ('"LRU", 256.0', "sequential", ("repro.core.policies.lru",),
         ("numpy", "_hashlib", "repro.sim.columnar", *UNUSED)),
        ('"GD", 256.0, fault_spec=FaultSpec(seed=1, crash_rate=0.1)',
         "gd-kernel", ("_hashlib",), ("numpy",)),
        ('"TTL", 512.0', "vectorized", ("numpy",), ()),
    ], ids=["gd-pressured", "gd-loop", "hist", "lru-declined", "gd-faulted", "ttl"])
    def test_a_run_loads_only_what_its_path_uses(self, args, path, loads, skips):
        """NumPy and OpenSSL are deferred to the code that uses them,
        not dropped: the TTL kernel still loads NumPy and fault draws
        still load ``_hashlib``; every other run loads neither, and an
        untraced, fault-free one no fault machinery, sink or event
        schema. Of the policies, a run loads the engine's and the one it
        names. The sanitizer is off in the child whatever the suite runs
        under: it sends every run to the loop, so no kernel path would
        be taken."""
        run = SMALL_RUN.format(args=args, path=path)
        if "FaultSpec" in args:
            run = "from repro.faults.model import FaultSpec\n" + run
        modules = loaded_after(run, REPRO_SANITIZE="")
        assert modules.issuperset(loads), sorted(modules)
        assert not modules.intersection(skips), sorted(modules)
        policies = {m for m in modules if m.startswith("repro.core.policies.")}
        assert policies.difference(loads) == {
            f"repro.core.policies.{name}" for name in ENGINE_POLICIES
        }, sorted(policies)

    def test_cli_help_loads_the_cli_alone(self):
        modules = loaded_after(CLI_HELP)
        assert "numpy" not in modules
        # ``repro.domains``: each numeric flag parses into its knob's domain.
        assert ours(modules) == [
            "repro", "repro._lazy", "repro.analysis",
            "repro.analysis.reporting", "repro.cli", "repro.domains",
        ]


class TestPoliciesLoadByName:
    """The registry names every built-in policy before its module loads
    (``BUILTIN_POLICIES``); :func:`create_policy` imports one on first use."""

    def test_available_policies_lists_all_and_imports_none(self):
        out = fresh(
            "import sys\n"
            "from repro.core.policies.base import available_policies\n"
            "print(*available_policies())\n"
            "print(*sorted(m for m in sys.modules if m.startswith('repro.core.policies.')))\n"
        )
        names, modules = out.splitlines()
        assert names.split() == sorted(BUILTIN_POLICIES) and len(BUILTIN_POLICIES) == 17
        assert modules.split() == ["repro.core.policies.base"]

    def test_create_policy_loads_exactly_its_module(self):
        out = fresh(
            "import sys\n"
            "from repro.core.policies.base import create_policy\n"
            "before = set(sys.modules)\n"
            "print(type(create_policy('lru')).__name__, *sorted(set(sys.modules) - before))\n"
        )
        assert out.split() == ["LRUPolicy", "repro.core.policies.lru"]

    def test_a_builtin_name_is_refused_before_its_module_loads(self):
        out = fresh(
            "import sys\n"
            "from repro.core.policies.base import KeepAlivePolicy, create_policy, register_policy\n"
            "try:\n"
            "    register_policy('lru')(type('Mine', (KeepAlivePolicy,), {}))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print('repro.core.policies.lru' in sys.modules, type(create_policy('LRU')).__name__)\n"
        )
        assert out.splitlines() == ["policy 'LRU' is already registered", "False LRUPolicy"]

    def test_the_table_is_what_the_modules_register(self):
        for module in set(BUILTIN_POLICIES.values()):
            importlib.import_module(f"repro.core.policies.{module}")
        registered = {
            name: factory.__module__.rsplit(".", 1)[1]
            for name, factory in _REGISTRY.items()
            if factory.__module__.startswith("repro.core.policies.")
        }
        assert registered == BUILTIN_POLICIES


#: Modules no other file imports, each an entry point of its own.
CENSUS_ENTRY_POINTS = {
    "repro.cli": "the repro-faascache console script (pyproject.toml)",
    "repro.checks.__main__": "python -m repro.checks, the analyzer's own command",
    "repro.traces.azure_csv": "the loader for the paper's Azure Functions 2019 dataset",
}

#: Public functions, classes and methods no reader names, each kept for
#: the reason beside it.
CENSUS_KEPT_NAMES = {
    "Welford": "tests/reference_model.py's CoV, the spec of HIST's inline one",
    "Welford.coefficient_of_variation": "the same spec helper",
    "FunctionHistogram.is_predictable": "the spec of the predictability test _plan inlines",
    "reuse_distances_naive": "the paper's conventional scan, the Fenwick tree's oracle",
    "set_sanitize": "the sanitizer's switch, which tests/conftest.py arms per test",
    "FaultSpec.to_dict": "the fault-spec file format, from_dict's inverse",
    "load_azure_dataset_csv": "the loader for the paper's Azure Functions 2019 dataset",
    "save_trace_csv": "the CSV trace format, round-tripped by CI's trace-consistency step",
    "load_trace_csv": "the CSV trace format, round-tripped by CI's trace-consistency step",
    "Trace.shifted": "a trace tool tests build their inputs with",
    "Trace.truncated": "a trace tool tests build their inputs with",
    "StreamingChurnTrace.materialize": "a trace tool: a stream as the Trace tests compare it to",
    "eviction_trace": "a trace tool: the workload of tests/test_pinned_replays.py",
    "point_fingerprint": "a pinned API: one sweep cell's results fingerprint",
    "ServerConfig": "a pinned API: the server model, whose knobs tests/test_domains.py probes",
    "ServerThread": "a pinned API: the in-process server of docs/live-serving.md",
    "RingBufferSink": "the in-memory sink tests read a run's events from",
    "KeepAliveSimulator.is_down": "a state query tests would otherwise read privately",
    "ContainerPool.tenant_limit_mb": "a state query tests would otherwise read privately",
    "ContainerPool.tenant_container_count": "a state query tests would otherwise read privately",
    "ContainerPool.expiry_deadline_of": "a state query tests would otherwise read privately",
    "LoadBalancer.down_servers": "a state query tests would otherwise read privately",
    "LoadBalancer.draining_servers": "a state query tests would otherwise read privately",
}


def census_readers():
    """Every ``src/`` module, benchmark and example: what the censuses
    count as a reader."""
    return [
        *SRC.rglob("*.py"),
        *(SRC.parent / "benchmarks").rglob("*.py"),
        *(SRC.parent / "examples").rglob("*.py"),
    ]


def module_name(path):
    """The dotted name of a file under ``src/``."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path, lazy):
    """Every module an ``import`` statement of ``path`` names, outside
    ``if TYPE_CHECKING:`` blocks; ``lazy`` maps each lazy package's
    names to the modules they come from."""
    tree = ast.parse(path.read_text())
    hidden = hidden_nodes(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            table = lazy.get(node.module, {})
            found.add(node.module)
            for alias in node.names:
                found.add(table.get(alias.name, f"{node.module}.{alias.name}"))
    return found


def hidden_nodes(tree):
    """Ids of the nodes under ``if TYPE_CHECKING:`` blocks."""
    return {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for statement in block.body for node in ast.walk(statement)
    }


def public_definitions(tree):
    """``(qualified name, first line, last line)`` of each public
    function, class and method of a module, decorators included; a
    ``visit_*`` dispatch method, and a policy that ``register_policy``
    files under its short name for ``create_policy``, are read by name."""
    found = []

    def walk(body, owner):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            registered = any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "register_policy"
                for d in node.decorator_list
            )
            if not (node.name.startswith(("_", "visit_")) or registered):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append((owner + node.name, first, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{owner}{node.name}.")

    walk(tree.body, "")
    return found


def named_identifiers(path, tree):
    """``(identifier, line)`` of every name, attribute and import of
    ``path`` outside ``if TYPE_CHECKING:``, and of every string that is
    a whole identifier (a ``getattr`` table's entry) outside a package
    ``__init__`` (its lazy table) and ``__all__``."""
    hidden = hidden_nodes(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            hidden.update(id(n) for n in ast.walk(node))
    strings = path.name != "__init__.py"
    for node in ast.walk(tree):
        if id(node) in hidden:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


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

    def test_every_module_has_a_reader(self):
        """The census: every module under ``src/repro`` is imported by
        another ``src/`` module, a benchmark or an example, or is a
        named entry point. ``if TYPE_CHECKING:`` imports and a package's
        lazy table do not count; ``from package import name`` counts
        for the module the package's table takes ``name`` from, and
        ``BUILTIN_POLICIES`` for each module it names, which
        ``create_policy`` imports by that name."""
        lazy = {
            package: {name: module for module, name in
                      static_reexports(importlib.import_module(package))}
            for package in LAZY_PACKAGES
        }
        modules = {
            module_name(path) for path in (SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"
        }
        read = {f"repro.core.policies.{module}" for module in BUILTIN_POLICIES.values()}
        for path in census_readers():
            own = module_name(path) if path.is_relative_to(SRC) else None
            read |= imported_modules(path, lazy) - {own}
        assert set(CENSUS_ENTRY_POINTS) <= modules
        assert sorted(modules - read - set(CENSUS_ENTRY_POINTS)) == []

    def test_every_public_name_has_a_reader(self):
        """The name census: every public function, class and method
        under ``src/repro`` is named by another ``src/`` module, a
        benchmark or an example outside its own definition, or is kept
        in :data:`CENSUS_KEPT_NAMES` with its reason. Name-based, like
        the module census: a method counts as read when any reader
        names its identifier."""
        named, definitions = {}, []
        for path in census_readers():
            tree = ast.parse(path.read_text())
            for identifier, line in named_identifiers(path, tree):
                named.setdefault(identifier, []).append((path, line))
            if path.is_relative_to(SRC):
                definitions += [(path, *span) for span in public_definitions(tree)]
        unread = {
            name
            for path, name, first, last in definitions
            if all(
                where == path and first <= line <= last
                for where, line in named.get(name.rpartition(".")[2], ())
            )
        }
        assert sorted(unread - set(CENSUS_KEPT_NAMES)) == []
        assert sorted(set(CENSUS_KEPT_NAMES) - unread) == []  # kept, yet read or gone

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
