"""Tests for the determinism & invariant linter (repro.checks).

Every rule is exercised twice through the fixtures under
``tests/fixtures/checks/``: the ``*_bad.py`` file must trigger exactly
its own rule code (and nothing else), the ``*_good.py`` twin must be
clean. On top of that the whole repository must lint clean — the same
gate the CI ``check`` job enforces.
"""

import pathlib
import textwrap

import pytest

from repro.checks.linter import (
    RULES,
    check_paths,
    format_finding,
    module_name_for,
)
from repro.cli import main as cli_main

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "checks"
CODES = sorted(RULES)


class TestFixtures:
    @pytest.mark.parametrize("code", CODES)
    def test_bad_fixture_triggers_exactly_its_rule(self, code):
        path = FIXTURES / f"{code.lower()}_bad.py"
        result = check_paths([path], include_fixtures=True)
        assert result.findings, f"{path} produced no findings"
        assert {f.code for f in result.findings} == {code}

    @pytest.mark.parametrize("code", CODES)
    def test_good_fixture_is_clean(self, code):
        path = FIXTURES / f"{code.lower()}_good.py"
        result = check_paths([path], include_fixtures=True)
        rendered = "\n".join(format_finding(f) for f in result.findings)
        assert result.ok, f"{path} should be clean:\n{rendered}"

    def test_every_rule_has_a_fixture_pair(self):
        for code in CODES:
            assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
            assert (FIXTURES / f"{code.lower()}_good.py").is_file()


class TestSelfClean:
    def test_repo_lints_clean(self):
        result = check_paths([REPO / "src", REPO / "tests"])
        rendered = "\n".join(format_finding(f) for f in result.findings)
        assert result.ok, f"repository must lint clean:\n{rendered}"
        # The walk must actually have covered the project (a path typo
        # would vacuously pass).
        assert result.files_checked > 100

    def test_fixtures_excluded_from_directory_walks(self):
        result = check_paths([REPO / "tests"])
        fixture_hits = [
            f for f in result.findings if "fixtures/checks" in f.path
        ]
        assert fixture_hits == []


class TestScoping:
    def test_module_name_derived_from_packages(self):
        path = REPO / "src" / "repro" / "sim" / "scheduler.py"
        name = module_name_for(path, path.read_text())
        assert name == "repro.sim.scheduler"

    def test_pragma_overrides_module_name(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text("# repro-checks-module: repro.sim.custom\n")
        assert module_name_for(path, path.read_text()) == "repro.sim.custom"

    def test_scoped_rules_skip_unscoped_files(self, tmp_path):
        # Wall-clock reads are fine outside the deterministic packages
        # (scripts, benchmarks, tests).
        path = tmp_path / "script.py"
        path.write_text(
            "import time\n\n\ndef now():\n    return time.time()\n"
        )
        assert check_paths([path]).ok

    def test_core_clock_is_the_allowed_definer(self):
        clock = REPO / "src" / "repro" / "core" / "clock.py"
        result = check_paths([clock])
        assert result.ok, [format_finding(f) for f in result.findings]

    def test_select_restricts_rules(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            "# repro-checks-module: repro.sim.snippet\n"
            "import time\n\n\n"
            "def at_half():\n    return time.time() == 0.5\n"
        )
        assert sorted(f.code for f in check_paths([path]).findings) == [
            "FC001", "FC007",
        ]
        result = check_paths([path], select={"FC007"})
        assert [f.code for f in result.findings] == ["FC007"]


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestSetTracking:
    """FC003 follows a set within its own file: through a ``self``
    attribute and a module constant, besides literals and locals."""

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
        # another method: ambiguous, so the rule must stay silent.
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


class TestSuppression:
    def _violating(self, tmp_path, trailer=""):
        path = tmp_path / "snippet.py"
        path.write_text(
            "# repro-checks-module: repro.sim.snippet\n"
            "import time\n\n\n"
            f"def now():\n    return time.time(){trailer}\n"
        )
        return path

    def test_noqa_with_code_suppresses(self, tmp_path):
        path = self._violating(tmp_path, "  # noqa: FC001")
        result = check_paths([path])
        assert result.ok
        assert [f.code for f in result.suppressed] == ["FC001"]

    def test_bare_noqa_suppresses(self, tmp_path):
        path = self._violating(tmp_path, "  # noqa")
        result = check_paths([path])
        assert result.ok
        assert len(result.suppressed) == 1

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        path = self._violating(tmp_path, "  # noqa: FC002")
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC001"]
        assert result.suppressed == []


class TestCli:
    def test_check_bad_fixture_exits_nonzero(self, capsys):
        code = cli_main(
            ["check", str(FIXTURES / "fc001_bad.py"), "--include-fixtures"]
        )
        assert code == 1
        assert "FC001" in capsys.readouterr().out

    def test_check_forwards_every_flag_to_the_linter(self, capsys):
        # The check subcommand has no parser of its own: options ahead
        # of the paths reach repro.checks.linter unchanged.
        code = cli_main(
            [
                "check", "--select", "FC002", "--include-fixtures",
                str(FIXTURES / "fc001_bad.py"),
            ]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_repo_exits_zero(self, capsys):
        code = cli_main(
            ["check", str(REPO / "src"), str(REPO / "tests"), "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out
