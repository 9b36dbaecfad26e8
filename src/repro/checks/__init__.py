"""Determinism & invariant checking for the FaasCache reproduction.

Two halves:

* the static analyzer — a two-phase, project-wide engine: phase 1
  (:mod:`repro.checks.dataflow`) summarizes every file, phase 2
  (:mod:`repro.checks.callgraph` + the per-rule modules under
  :mod:`repro.checks.rules`) resolves set types, return summaries,
  and async/entry-point reachability across files. Rules FC001–FC011
  (FC005 is retired), driven by :mod:`repro.checks.linter` (``repro-faascache check`` /
  ``python -m repro.checks``), with SARIF output
  (:mod:`repro.checks.sarif`), an incremental cache
  (:mod:`repro.checks.cache`) and autofixes
  (:mod:`repro.checks.fixes`);
* :mod:`repro.checks.sanitize` — the runtime invariant sanitizer,
  enabled with ``REPRO_SANITIZE=1`` or the CLI ``--sanitize`` flag.

See ``docs/static-analysis.md`` for the rule catalog and rationale.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.checks.linter import RULES, CheckResult, Finding, check_paths, format_finding
    from repro.checks.sanitize import (
        ReportSink, SanitizeError, check_counter_equality, sanitize_enabled, set_sanitize,
    )

__all__ = [
    "RULES", "CheckResult", "Finding", "check_paths", "format_finding",
    "ReportSink", "SanitizeError", "check_counter_equality", "sanitize_enabled", "set_sanitize",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "linter": "RULES CheckResult Finding check_paths format_finding",
    "sanitize": "ReportSink SanitizeError check_counter_equality sanitize_enabled set_sanitize",
})
