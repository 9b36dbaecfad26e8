"""Determinism & invariant checking for the FaasCache reproduction.

Two halves:

* the static analyzer — one pass per file, stdlib-only: rules FC001,
  FC002, FC003 and FC007 under :mod:`repro.checks.rules`, driven by
  :mod:`repro.checks.linter` (``repro-faascache check`` /
  ``python -m repro.checks``);
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
