"""Rule registry: the one list the engine, CLI, SARIF output, cache
environment hash, docs table, and fixture tests all derive from.

To add a rule: write ``fc0xx_name.py`` with a :class:`~repro.checks.
rules.base.Rule` subclass, import it here, and append an instance to
``ALL_RULES`` (keep code order). Everything else picks it up.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.checks.rules.base import FileEngine, Finding, Rule, RuleContext
from repro.checks.rules.fc001_wall_clock import WallClockRule
from repro.checks.rules.fc002_rng import UnseededRngRule
from repro.checks.rules.fc003_set_order import SetOrderRule
from repro.checks.rules.fc004_event_names import EventNameRule
from repro.checks.rules.fc006_pickle_safety import PickleSafetyRule
from repro.checks.rules.fc007_float_equality import FloatEqualityRule
from repro.checks.rules.fc008_mutable_defaults import MutableDefaultRule
from repro.checks.rules.fc009_lock_discipline import LockDisciplineRule
from repro.checks.rules.fc010_blocking_async import BlockingAsyncRule
from repro.checks.rules.fc011_swallowed_exceptions import (
    SwallowedExceptionRule,
)

__all__ = [
    "ALL_RULES",
    "RULES",
    "NOQA_GUARD_CODE",
    "FileEngine",
    "Finding",
    "Rule",
    "RuleContext",
]

#: Rule instances in code order; the engine iterates these per file.
#: FC005 (counter-contract drift) is retired — the contract is one
#: table now, repro.obs.counters — and the code is not reused.
ALL_RULES: List[Rule] = [
    WallClockRule(),
    UnseededRngRule(),
    SetOrderRule(),
    EventNameRule(),
    PickleSafetyRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    LockDisciplineRule(),
    BlockingAsyncRule(),
    SwallowedExceptionRule(),
]

#: code -> (summary, fix hint); derived from the instances so the two
#: can never drift apart.
RULES: Dict[str, Tuple[str, str]] = {
    rule.code: (rule.summary, rule.hint) for rule in ALL_RULES
}

#: Pseudo-code for the noqa typo guard: a ``# noqa: FCxxx`` comment
#: naming a code that does not exist is itself a finding (it would
#: otherwise silently suppress nothing, forever). Not in ``RULES`` —
#: it has no fixture pair and cannot itself be suppressed.
NOQA_GUARD_CODE = "FC000"
