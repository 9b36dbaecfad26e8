"""Driver for the determinism linter (rules FC001, FC002, FC003 and
FC007, plus the FC000 noqa guard).

One pass per file: each file is read, parsed, and walked once by
:class:`~repro.checks.rules.base.FileEngine` with a
:class:`~repro.checks.rules.base.RuleContext` holding that file's
facts alone. The rules live under :mod:`repro.checks.rules`; this
module adds what a lint *run* needs: file discovery, module naming,
noqa suppression (with a typo guard — a noqa naming an unknown
``FCxxx`` code is itself reported as FC000), and the CLI.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.checks.rules import (
    ALL_RULES,
    NOQA_GUARD_CODE,
    RULES,
    FileEngine,
    Finding,
    RuleContext,
)
from repro.checks.rules.base import NOQA_RE, line_suppresses

__all__ = [
    "RULES",
    "Finding",
    "CheckResult",
    "check_paths",
    "format_finding",
    "iter_python_files",
    "module_name_for",
    "main",
]

_PRAGMA_RE = re.compile(r"#\s*repro-checks-module:\s*([\w.]+)")

#: Directory fragment excluded from directory walks by default: the
#: deliberately-rule-breaking lint fixtures must not fail the
#: self-clean CI run (tests address them file-by-file instead).
_FIXTURE_FRAGMENT = "fixtures/checks"

_FC_CODE_RE = re.compile(r"^FC\d+$")


@dataclass
class CheckResult:
    """Everything one linter run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self, suppressed: bool = False) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.suppressed if suppressed else self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return out


def format_finding(finding: Finding) -> str:
    text = (
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.code} {finding.message}"
    )
    if finding.hint:
        text += f" [fix: {finding.hint}]"
    return text


def iter_python_files(
    paths: Sequence[Union[str, pathlib.Path]],
    include_fixtures: bool = False,
) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, de-duplicated file list.

    Directory walks skip ``__pycache__``, hidden directories, and (by
    default) the deliberately-broken lint fixtures; explicitly-named
    files are always included.
    """
    out: List[pathlib.Path] = []
    seen: Set[pathlib.Path] = set()

    def _add(path: pathlib.Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(path)

    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            _add(path)
            continue
        for candidate in sorted(path.rglob("*.py")):
            posix = candidate.as_posix()
            if "__pycache__" in candidate.parts:
                continue
            if any(part.startswith(".") for part in candidate.parts):
                continue
            if not include_fixtures and _FIXTURE_FRAGMENT in posix:
                continue
            _add(candidate)
    return out


def module_name_for(path: pathlib.Path, source: str) -> Optional[str]:
    """The dotted module a file belongs to, or ``None``.

    A ``# repro-checks-module: <dotted>`` pragma in the first lines
    wins; otherwise the name is derived by walking up through package
    directories (ones holding ``__init__.py``).
    """
    match = _PRAGMA_RE.search("\n".join(source.splitlines()[:12]))
    if match:
        return match.group(1)
    resolved = path.resolve()
    parts: List[str] = []
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    if not parts:
        return None
    parts.reverse()
    if resolved.stem != "__init__":
        parts.append(resolved.stem)
    return ".".join(parts)


def _noqa_guard_findings(
    lines: List[str], path: str, select: Optional[Collection[str]]
) -> List[Finding]:
    """FC000 for every noqa comment naming a nonexistent FC code —
    such a comment suppresses nothing, silently, forever."""
    if select is not None and NOQA_GUARD_CODE not in select:
        return []
    out: List[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        match = NOQA_RE.search(line)
        if match is None or match.group("codes") is None:
            continue
        for code in re.split(r"[,\s]+", match.group("codes")):
            upper = code.strip().upper()
            if _FC_CODE_RE.match(upper) and upper not in RULES:
                out.append(
                    Finding(
                        path=path,
                        line=lineno,
                        col=match.start(),
                        code=NOQA_GUARD_CODE,
                        message=(
                            f"noqa references unknown rule code "
                            f"{upper}; it suppresses nothing "
                            "(typo?)"
                        ),
                    )
                )
    return out


def _is_suppressed(finding: Finding, lines: List[str]) -> bool:
    if finding.code == NOQA_GUARD_CODE:
        return False  # the guard must survive the line it polices
    if not 1 <= finding.line <= len(lines):
        return False
    return line_suppresses(lines[finding.line - 1], finding.code)


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.code)


def check_paths(
    paths: Sequence[Union[str, pathlib.Path]],
    select: Optional[Collection[str]] = None,
    include_fixtures: bool = False,
) -> CheckResult:
    """Lint every Python file under ``paths``; the package's main API.

    ``select`` restricts the run to a subset of rule codes. Returns a
    :class:`CheckResult`; ``result.ok`` is the gate.
    """
    result = CheckResult()
    for path in iter_python_files(paths, include_fixtures=include_fixtures):
        path_str = str(path)
        try:
            source = path.read_text()
        except OSError as exc:
            result.findings.append(
                Finding(path_str, 1, 0, NOQA_GUARD_CODE, f"unreadable: {exc}")
            )
            continue
        try:
            tree = ast.parse(source, filename=path_str)
        except SyntaxError as exc:
            result.findings.append(
                Finding(
                    path_str,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    NOQA_GUARD_CODE,
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        result.files_checked += 1
        ctx = RuleContext(path_str, module_name_for(path, source), tree, select)
        raw = FileEngine(ctx, ALL_RULES).run(tree)
        lines = source.splitlines()
        raw += _noqa_guard_findings(lines, path_str, select)
        for finding in raw:
            if _is_suppressed(finding, lines):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=_sort_key)
    result.suppressed.sort(key=_sort_key)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-faascache check`` and
    ``python -m repro.checks``."""
    parser = argparse.ArgumentParser(
        prog="repro-faascache check",
        description=(
            "determinism linter for the FaasCache reproduction (rules "
            f"{', '.join(RULES)}; see docs/static-analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="FC001,FC002,...",
        help="only run these rule codes",
    )
    parser.add_argument(
        "--include-fixtures",
        action="store_true",
        help="also lint the deliberately-broken fixtures under "
        "tests/fixtures/checks/",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule counts, including suppressed (noqa) findings",
    )
    args = parser.parse_args(argv)
    select = (
        {code.strip().upper() for code in args.select.split(",")}
        if args.select
        else None
    )
    result = check_paths(
        args.paths, select=select, include_fixtures=args.include_fixtures
    )
    for finding in result.findings:
        print(format_finding(finding))
    if args.stats:
        for label, suppressed in (("findings", False), ("suppressed", True)):
            counts = result.counts_by_code(suppressed=suppressed)
            rendered = (
                ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                or "none"
            )
            print(f"{label} by rule: {rendered}")
    print(
        f"checked {result.files_checked} files: "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
