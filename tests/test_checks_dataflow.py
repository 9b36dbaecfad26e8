"""Tests for the two-phase dataflow engine and its call graph.

Two layers under test:

* **Interprocedural FC003** — the set-order rule now follows sets
  through ``self._attr`` loads, function return values (including
  cross-file), and module-level constants.
* **Degrade-to-unknown** — the adversarial shapes (cycles,
  ``functools.partial``, unrecognized decorators, package
  ``__init__`` re-export chains) must produce *unknown* summaries,
  never wrong ones. A wrong "returns a set" summary would flag clean
  code; a wrong call edge would mark sync-only paths async-reachable.
"""

import ast
import pathlib
import textwrap

from repro.checks.callgraph import CallGraph
from repro.checks.dataflow import ProjectIndex, summarize_module
from repro.checks.linter import check_paths


def _summarize(tmp_path, name, source):
    path = tmp_path / name
    source = textwrap.dedent(source)
    path.write_text(source)
    tree = ast.parse(source, filename=str(path))
    return summarize_module(tree, path, source)


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestInterproceduralSetTracking:
    def test_attribute_load_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.attrcase
            class Tracker:
                def __init__(self):
                    self._down = set()

                def order(self):
                    return [n for n in self._down]
            """,
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC003"]
        assert "_down" in result.findings[0].message

    def test_function_return_flagged_cross_file(self, tmp_path):
        helper = _write(
            tmp_path,
            "helpers.py",
            """\
            # repro-checks-module: repro.sim.helpers
            def warm_names():
                return {"alpha", "beta"}
            """,
        )
        consumer = _write(
            tmp_path,
            "consumer.py",
            """\
            # repro-checks-module: repro.sim.consumer
            from repro.sim.helpers import warm_names


            def walk():
                return [n for n in warm_names()]
            """,
        )
        result = check_paths([helper, consumer])
        assert [f.code for f in result.findings] == ["FC003"]
        assert result.findings[0].path == str(consumer)

    def test_module_constant_flagged(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.constcase
            STATES = {"warm", "cold"}


            def walk():
                return [s for s in STATES]
            """,
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC003"]

    def test_local_rebind_shadows_module_constant(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.shadowcase
            STATES = {"warm", "cold"}


            def walk(items):
                STATES = sorted(items)
                return [s for s in STATES]
            """,
        )
        assert check_paths([path]).ok

    def test_ambiguous_attribute_not_flagged(self, tmp_path):
        # The attribute is a set in __init__ but rebound to a list in
        # another method: ambiguous, so the engine must stay silent.
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.ambiguous
            class Tracker:
                def __init__(self):
                    self._down = set()

                def freeze(self):
                    self._down = sorted(self._down)

                def order(self):
                    return [n for n in self._down]
            """,
        )
        assert check_paths([path]).ok


class TestDegradeToUnknown:
    def test_recursion_cycle_terminates_as_unknown(self, tmp_path):
        summary = _summarize(
            tmp_path,
            "cyc.py",
            """\
            # repro-checks-module: repro.sim.cyc
            def ping(n):
                return pong(n)


            def pong(n):
                return ping(n)
            """,
        )
        index = ProjectIndex([summary])
        ping = summary.functions["ping"]
        assert index.returns_set(ping, "repro.sim.cyc") is False

    def test_cycle_with_set_leg_still_unknown(self, tmp_path):
        # One leg of the cycle returns a literal set, but the
        # recursive leg is unknowable: all-paths-must-be-set fails.
        path = _write(
            tmp_path,
            "cyc2.py",
            """\
            # repro-checks-module: repro.sim.cyc2
            def gather(n):
                if n <= 0:
                    return {n}
                return gather(n - 1)


            def walk(n):
                return [x for x in gather(n)]
            """,
        )
        assert check_paths([path]).ok

    def test_functools_partial_degrades(self, tmp_path):
        summary = _summarize(
            tmp_path,
            "part.py",
            """\
            # repro-checks-module: repro.sim.part
            import functools


            def base(x):
                return {x}


            def make():
                return functools.partial(base, 1)
            """,
        )
        index = ProjectIndex([summary])
        graph = CallGraph(index)
        make = summary.functions["make"]
        # No wrong "returns a set" summary, no fabricated edge to base.
        assert index.returns_set(make, "repro.sim.part") is False
        assert "repro.sim.part.base" not in graph.callees_of(
            "repro.sim.part.make"
        )

    def test_unknown_decorator_degrades(self, tmp_path):
        path = _write(
            tmp_path,
            "deco.py",
            """\
            # repro-checks-module: repro.sim.deco
            from repro.sim.elsewhere import memoize


            @memoize
            def cached_names():
                return {"alpha"}


            def walk():
                return [n for n in cached_names()]
            """,
        )
        summary = _summarize(
            tmp_path,
            "deco2.py",
            (tmp_path / "deco.py").read_text(),
        )
        assert summary.functions["cached_names"].unknown_decorated
        # The decorator may replace the return value entirely: the
        # loop must NOT be flagged on the undecorated body's summary.
        assert check_paths([path]).ok

    def test_benign_decorator_keeps_summary(self, tmp_path):
        path = _write(
            tmp_path,
            "benign.py",
            """\
            # repro-checks-module: repro.sim.benign
            import functools


            @functools.lru_cache(maxsize=None)
            def cached_names():
                return {"alpha"}


            def walk():
                return [n for n in cached_names()]
            """,
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC003"]

    def test_init_reexport_resolves(self, tmp_path):
        impl = _write(
            tmp_path,
            "impl.py",
            """\
            # repro-checks-module: repro.sim.pkg.impl
            def make_names():
                return {"alpha"}
            """,
        )
        init = _write(
            tmp_path,
            "init.py",
            """\
            # repro-checks-module: repro.sim.pkg
            from repro.sim.pkg.impl import make_names
            """,
        )
        consumer = _write(
            tmp_path,
            "consumer.py",
            """\
            # repro-checks-module: repro.sim.consumer
            from repro.sim.pkg import make_names


            def walk():
                return [n for n in make_names()]
            """,
        )
        result = check_paths([impl, init, consumer])
        assert [f.code for f in result.findings] == ["FC003"]
        assert result.findings[0].path == str(consumer)

    def test_type_checking_reexport_resolves(self, tmp_path):
        """A lazy package ``__init__`` keeps its static imports under
        ``if TYPE_CHECKING:``; the summarizer must still follow them."""
        impl = _write(
            tmp_path,
            "impl.py",
            """\
            # repro-checks-module: repro.sim.pkg.impl
            def make_names():
                return {"alpha"}
            """,
        )
        init = _write(
            tmp_path,
            "init.py",
            """\
            # repro-checks-module: repro.sim.pkg
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.sim.pkg.impl import make_names
            """,
        )
        consumer = _write(
            tmp_path,
            "consumer.py",
            """\
            # repro-checks-module: repro.sim.consumer
            from repro.sim.pkg import make_names


            def walk():
                return [n for n in make_names()]
            """,
        )
        result = check_paths([impl, init, consumer])
        assert [f.code for f in result.findings] == ["FC003"]
        assert result.findings[0].path == str(consumer)

    def test_broken_reexport_degrades(self, tmp_path):
        init = _write(
            tmp_path,
            "init.py",
            """\
            # repro-checks-module: repro.sim.pkg
            from repro.sim.pkg.missing import make_names
            """,
        )
        consumer = _write(
            tmp_path,
            "consumer.py",
            """\
            # repro-checks-module: repro.sim.consumer
            from repro.sim.pkg import make_names


            def walk():
                return [n for n in make_names()]
            """,
        )
        assert check_paths([init, consumer]).ok

    def test_reexport_cycle_hits_hop_limit(self, tmp_path):
        a = _write(
            tmp_path,
            "a.py",
            """\
            # repro-checks-module: repro.sim.a
            from repro.sim.b import make_names
            """,
        )
        b = _write(
            tmp_path,
            "b.py",
            """\
            # repro-checks-module: repro.sim.b
            from repro.sim.a import make_names
            """,
        )
        consumer = _write(
            tmp_path,
            "consumer.py",
            """\
            # repro-checks-module: repro.sim.consumer
            from repro.sim.a import make_names


            def walk():
                return [n for n in make_names()]
            """,
        )
        assert check_paths([a, b, consumer]).ok


class TestCallGraphReachability:
    def _graph(self, tmp_path, source):
        summary = _summarize(tmp_path, "mod.py", source)
        return CallGraph(ProjectIndex([summary]))

    def test_async_reachability_is_transitive(self, tmp_path):
        graph = self._graph(
            tmp_path,
            """\
            # repro-checks-module: repro.live.reach
            async def loop():
                step()


            def step():
                helper()


            def helper():
                pass


            def unrelated():
                pass
            """,
        )
        assert "repro.live.reach.step" in graph.async_reachable
        assert "repro.live.reach.helper" in graph.async_reachable
        assert "repro.live.reach.unrelated" not in graph.async_reachable

    def test_public_entry_point_counts(self, tmp_path):
        graph = self._graph(
            tmp_path,
            """\
            # repro-checks-module: repro.live.entries
            def serve(pool):
                _shared(pool)


            def reclaim(pool):
                _shared(pool)


            def only(pool):
                _single(pool)


            def _shared(pool):
                pass


            def _single(pool):
                pass
            """,
        )
        assert graph.public_entry_count("repro.live.entries._shared") == 2
        assert graph.public_entry_count("repro.live.entries._single") == 1

    def test_fc010_cross_file_reachability(self, tmp_path):
        runner = _write(
            tmp_path,
            "runner.py",
            """\
            # repro-checks-module: repro.live.runner
            from repro.live.waits import backoff


            async def loop():
                backoff()
            """,
        )
        waits = _write(
            tmp_path,
            "waits.py",
            """\
            # repro-checks-module: repro.live.waits
            import time


            def backoff():
                time.sleep(1.0)
            """,
        )
        result = check_paths([runner, waits])
        assert [f.code for f in result.findings] == ["FC010"]
        assert result.findings[0].path == str(waits)
        # Linted alone, the helper has no async caller in view:
        # degrade to silent rather than guess.
        assert check_paths([waits]).ok
