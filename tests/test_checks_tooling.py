"""Tests for the linter's run-level tooling: the noqa typo guard
(FC000) and the ``--stats`` summary."""

import textwrap

import pytest

from repro.checks.linter import RULES, check_paths, main


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


BAD_SOURCE = """\
# repro-checks-module: repro.sim.fixture_tooling
import time


def tick():
    return time.time()
"""


class TestStats:
    def test_counts_findings_and_suppressions_by_rule(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "mod.py",
            BAD_SOURCE + "\n\ndef tock():\n    return time.time()  # noqa: FC001\n",
        )
        assert main([str(path), "--stats"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == [
            "findings by rule: FC001=1",
            "suppressed by rule: FC001=1",
            "checked 1 files: 1 finding(s), 1 suppressed",
        ]


class TestNoqaGuard:
    def test_unknown_fc_code_reports_fc000(self, tmp_path):
        # The noqa comment is assembled at runtime so this test file's
        # own source never contains an unknown-code noqa line.
        path = _write(
            tmp_path,
            "mod.py",
            "# repro-checks-module: repro.sim.fixture_typo\n"
            "def nothing():\n"
            "    return 0  # noqa" + ": FC999\n",
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC000"]
        assert "FC999" in result.findings[0].message
        assert "typo" in result.findings[0].message

    @pytest.mark.parametrize(
        "code", ["FC004", "FC005", "FC006", "FC008", "FC009", "FC010", "FC011"]
    )
    def test_retired_codes_are_unknown(self, tmp_path, code):
        # Retired codes are not reused: a leftover suppression comment
        # naming one suppresses nothing, like any other typo.
        assert code not in RULES
        path = _write(
            tmp_path,
            "mod.py",
            "# repro-checks-module: repro.sim.fixture_retired\n"
            "def nothing():\n"
            "    return 0  # noqa" + f": {code}\n",
        )
        result = check_paths([path])
        assert [f.code for f in result.findings] == ["FC000"]
        assert code in result.findings[0].message

    def test_foreign_codes_ignored(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            """\
            # repro-checks-module: repro.sim.fixture_foreign
            def nothing(x):
                return x  # noqa: E501
            """,
        )
        assert check_paths([path]).ok

    def test_fc000_cannot_be_suppressed(self, tmp_path):
        path = _write(
            tmp_path,
            "mod.py",
            "# repro-checks-module: repro.sim.fixture_meta\n"
            "def nothing():\n"
            "    return 0  # noqa" + ": FC000, FC999\n",
        )
        result = check_paths([path])
        # Both FC000 (not a suppressible rule) and FC999 (no such
        # rule) are flagged, and neither report is itself suppressed.
        assert [f.code for f in result.findings] == ["FC000", "FC000"]
        assert not result.suppressed
