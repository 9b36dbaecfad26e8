"""Driver for the determinism & invariant linter (rules FC001-FC011;
FC005 is retired).

The analysis itself lives in three sibling modules — this file only
orchestrates the two phases and owns the CLI:

* :mod:`repro.checks.dataflow` — phase 1: each file is parsed once
  and reduced to a JSON-serializable ``ModuleSummary`` (set-typed
  constants/attributes/returns, event names, concurrency imports).
  Purely syntactic; never imports the sources it reads.
* :mod:`repro.checks.callgraph` — phase 2 support: resolved call
  edges, async reachability, public-entry-point counts.
* :mod:`repro.checks.rules` — the rule registry; each rule is one
  module under ``rules/`` plugged into the shared
  :class:`~repro.checks.rules.base.FileEngine` walk.

The driver adds the parts a lint *run* needs: file discovery, noqa
suppression (with a typo guard — a noqa naming an unknown ``FCxxx``
code is itself reported as FC000), the incremental cache
(:mod:`repro.checks.cache`), SARIF output (:mod:`repro.checks.sarif`),
and the ``--fix`` autofixer (:mod:`repro.checks.fixes`).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Collection,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.checks.cache import DEFAULT_CACHE_PATH, CheckCache
from repro.checks.callgraph import CallGraph
from repro.checks.dataflow import (
    ModuleSummary,
    ProjectIndex,
    module_name_for,
    summarize_module,
)
from repro.checks.rules import (
    ALL_RULES,
    NOQA_GUARD_CODE,
    RULES,
    FileEngine,
    Finding,
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

#: Kept under the old private names for in-repo callers.
_NOQA_RE = NOQA_RE
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
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def counts_by_code(self, suppressed: bool = False) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.suppressed if suppressed else self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return out

    def stats_dict(self, include_cache: bool = True) -> Dict[str, Any]:
        """The ``--stats-json`` payload. CI diffs the cold and warm
        runs on this minus the ``cache`` section, so everything else
        in here must be run-order and cache-state independent."""
        payload: Dict[str, Any] = {
            "files_checked": self.files_checked,
            "findings": len(self.findings),
            "suppressed": len(self.suppressed),
            "findings_by_rule": dict(
                sorted(self.counts_by_code().items())
            ),
            "suppressed_by_rule": dict(
                sorted(self.counts_by_code(suppressed=True).items())
            ),
            "rules": sorted(RULES),
        }
        if include_cache:
            payload["cache"] = {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hit_rate, 4),
            }
        return payload


def format_finding(finding: Finding) -> str:
    text = (
        f"{finding.path}:{finding.line}:{finding.col + 1}: "
        f"{finding.code} {finding.message}"
    )
    if finding.hint:
        text += f" [fix: {finding.hint}]"
    return text


# ----------------------------------------------------------------------
# File discovery
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# The two-phase run
# ----------------------------------------------------------------------


@dataclass
class _FileState:
    """Per-file progress through the phases; ``source``/``tree`` stay
    ``None`` on a full cache hit — the warm path never reads the file."""

    path: pathlib.Path
    digest: Optional[str] = None
    source: Optional[str] = None
    tree: Optional[ast.Module] = None
    summary: Optional[ModuleSummary] = None


def _finding_to_dict(finding: Finding) -> Dict[str, Any]:
    # Path deliberately omitted: it is re-attached from the current
    # run's spelling of the path, keeping cache entries relocatable.
    return {
        "line": finding.line,
        "col": finding.col,
        "code": finding.code,
        "message": finding.message,
    }


def _finding_from_dict(path: str, data: Dict[str, Any]) -> Finding:
    return Finding(
        path=path,
        line=int(data["line"]),
        col=int(data["col"]),
        code=str(data["code"]),
        message=str(data["message"]),
    )


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not hashable into the environment: {obj!r}")


def _environment_hash(
    index: ProjectIndex,
    graph: CallGraph,
    select: Optional[Collection[str]],
) -> str:
    """Hash of every cross-file fact findings may depend on.

    Built from the position-independent ``identity_facts`` so a pure
    line-shift edit in one file does not invalidate the cached
    findings of any other file.
    """
    facts = {
        "rules": {code: list(RULES[code]) for code in sorted(RULES)},
        "select": sorted(select) if select is not None else None,
        "modules": [
            summary.identity_facts()
            for summary in sorted(
                index.summaries, key=lambda s: s.path
            )
        ],
        "graph": graph.identity_facts(),
    }
    blob = json.dumps(facts, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            continue
        for code in re.split(r"[,\s]+", codes):
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
    cache: Optional[CheckCache] = None,
) -> CheckResult:
    """Lint every Python file under ``paths``; the package's main API.

    ``select`` restricts the run to a subset of rule codes; ``cache``
    (a :class:`~repro.checks.cache.CheckCache`) enables the
    incremental fast path — the caller owns ``cache.save()``.
    Returns a :class:`CheckResult`; ``result.ok`` is the gate.
    """
    files = iter_python_files(paths, include_fixtures=include_fixtures)
    states: List[_FileState] = []
    file_findings: List[Finding] = []  # FC000 I/O + syntax, never cached

    # Phase 1: summaries (cache layer: content hash -> summary).
    for path in files:
        state = _FileState(path=path)
        try:
            if cache is not None:
                state.digest, source = cache.file_hash(path)
                state.source = source
            else:
                state.source = path.read_text()
        except OSError as exc:
            file_findings.append(
                Finding(
                    str(path), 1, 0, NOQA_GUARD_CODE,
                    f"unreadable: {exc}",
                )
            )
            continue
        cached_summary = (
            cache.summary(state.digest)
            if cache is not None and state.digest is not None
            else None
        )
        if cached_summary is not None:
            state.summary = ModuleSummary.from_dict(cached_summary)
            state.summary.path = str(path)
        else:
            if state.source is None:
                try:
                    state.source = path.read_text()
                except OSError as exc:
                    file_findings.append(
                        Finding(
                            str(path), 1, 0, NOQA_GUARD_CODE,
                            f"unreadable: {exc}",
                        )
                    )
                    continue
            try:
                state.tree = ast.parse(
                    state.source, filename=str(path)
                )
            except SyntaxError as exc:
                file_findings.append(
                    Finding(
                        str(path),
                        exc.lineno or 1,
                        (exc.offset or 1) - 1,
                        NOQA_GUARD_CODE,
                        f"syntax error: {exc.msg}",
                    )
                )
                continue
            state.summary = summarize_module(
                state.tree, path, state.source
            )
            if cache is not None and state.digest is not None:
                cache.store_summary(
                    state.digest, state.summary.to_dict()
                )
        states.append(state)

    # Phase 2: the project-wide index and call graph.
    index = ProjectIndex(
        [state.summary for state in states if state.summary is not None]
    )
    graph = CallGraph(index)
    env_hash = (
        _environment_hash(index, graph, select)
        if cache is not None
        else ""
    )

    # Phase 3: per-file findings (cache layer: content+env hash).
    all_findings: List[Finding] = []
    all_suppressed: List[Finding] = []
    for state in states:
        assert state.summary is not None
        cached = (
            cache.findings(state.digest, env_hash)
            if cache is not None and state.digest is not None
            else None
        )
        path_str = str(state.path)
        if cached is not None:
            findings = [
                _finding_from_dict(path_str, item)
                for item in cached["findings"]
            ]
            suppressed = [
                _finding_from_dict(path_str, item)
                for item in cached["suppressed"]
            ]
        else:
            if state.source is None:
                try:
                    state.source = state.path.read_text()
                except OSError as exc:
                    file_findings.append(
                        Finding(
                            path_str, 1, 0, NOQA_GUARD_CODE,
                            f"unreadable: {exc}",
                        )
                    )
                    continue
            if state.tree is None:
                # The summary cache proved this content parses.
                state.tree = ast.parse(
                    state.source, filename=path_str
                )
            engine = FileEngine(
                state.summary, index, graph, ALL_RULES, select
            )
            raw = engine.run(state.tree)
            lines = state.source.splitlines()
            raw += _noqa_guard_findings(lines, path_str, select)
            findings, suppressed = [], []
            for finding in sorted(raw, key=_sort_key):
                if _is_suppressed(finding, lines):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
            if cache is not None and state.digest is not None:
                cache.store_findings(
                    state.digest,
                    env_hash,
                    [_finding_to_dict(item) for item in findings],
                    [_finding_to_dict(item) for item in suppressed],
                )
        all_findings.extend(findings)
        all_suppressed.extend(suppressed)

    all_findings.extend(file_findings)
    result = CheckResult(files_checked=len(states))
    result.findings = sorted(all_findings, key=_sort_key)
    result.suppressed = sorted(all_suppressed, key=_sort_key)
    if cache is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
    return result


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.checks``)."""
    parser = argparse.ArgumentParser(
        prog="repro-checks",
        description=(
            "determinism & invariant linter for the FaasCache "
            "reproduction (rules FC001-FC011, FC005 retired; see "
            "docs/static-analysis.md)"
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
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write machine-readable run stats (rule counts, "
        "suppressions, files analyzed, cache hit rate) to PATH",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write findings to PATH instead of stdout",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply the mechanical autofixes (FC008 mutable defaults, "
        "FC007 float equality) before linting",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental result cache",
    )
    parser.add_argument(
        "--cache-path",
        metavar="PATH",
        default=DEFAULT_CACHE_PATH,
        help=f"incremental cache location (default: {DEFAULT_CACHE_PATH})",
    )
    args = parser.parse_args(argv)
    select = (
        {code.strip().upper() for code in args.select.split(",")}
        if args.select
        else None
    )

    if args.fix:
        from repro.checks.fixes import fix_paths

        targets = iter_python_files(
            args.paths, include_fixtures=args.include_fixtures
        )
        fixed = fix_paths(targets, select=select)
        for path, count in sorted(fixed.items()):
            print(f"fixed {count} issue(s) in {path}")

    cache: Optional[CheckCache] = None
    if not args.no_cache:
        cache = CheckCache(pathlib.Path(args.cache_path))
    result = check_paths(
        args.paths,
        select=select,
        include_fixtures=args.include_fixtures,
        cache=cache,
    )
    if cache is not None:
        cache.save()

    sarif_to_stdout = args.format == "sarif" and not args.output
    if args.format == "sarif":
        from repro.checks.sarif import to_sarif

        rendered = json.dumps(
            to_sarif(result.findings, result.suppressed), indent=2
        )
        if args.output:
            pathlib.Path(args.output).write_text(rendered + "\n")
        else:
            print(rendered)
    else:
        lines = [format_finding(f) for f in result.findings]
        if args.output:
            pathlib.Path(args.output).write_text(
                "".join(line + "\n" for line in lines)
            )
        else:
            for line in lines:
                print(line)

    if args.stats_json:
        pathlib.Path(args.stats_json).write_text(
            json.dumps(result.stats_dict(), indent=2, sort_keys=True)
            + "\n"
        )
    if args.stats and not sarif_to_stdout:
        for label, suppressed in (("findings", False), ("suppressed", True)):
            counts = result.counts_by_code(suppressed=suppressed)
            rendered = (
                ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                or "none"
            )
            print(f"{label} by rule: {rendered}")
    if not sarif_to_stdout:
        print(
            f"checked {result.files_checked} files: "
            f"{len(result.findings)} finding(s), "
            f"{len(result.suppressed)} suppressed"
        )
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
