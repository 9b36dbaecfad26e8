"""FC003 — unordered set iteration in deterministic paths.

Set iteration order depends on ``PYTHONHASHSEED``; an unsorted set
walk is a replay difference waiting to happen. The rule follows a set
within its file: a literal, a local assigned one, a ``self._attr``
its class only ever assigns a set, or a module-level set constant.

The membership sub-rule flags a set rebuilt inside the loop it guards.
"""

from __future__ import annotations

import ast

from repro.checks.rules.base import Rule, RuleContext, is_set_expr
from repro.checks.rules.fc001_wall_clock import DETERMINISTIC_SCOPE

_REASON_MESSAGES = {
    "literal": (
        "iterating an unordered set in a deterministic path; wrap it "
        "in sorted(...)"
    ),
    "var": (
        "{name!r} holds a set and reaches this loop unordered; iterate "
        "sorted(...) of it"
    ),
    "attr": (
        "attribute {name!r} is set-typed (inferred from its class) and "
        "is iterated unordered; iterate sorted(...) of it"
    ),
    "const": (
        "module constant {name!r} is a set and is iterated unordered; "
        "iterate sorted(...) of it"
    ),
}


def _described_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _described_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return "<expr>"


class SetOrderRule(Rule):
    code = "FC003"
    summary = (
        "unordered set iterated (or rebuilt per element) in a "
        "deterministic path"
    )
    hint = (
        "iterate sorted(the_set) instead; hoist membership sets out "
        "of the loop"
    )
    scope = DETERMINISTIC_SCOPE + ("repro.traces",)

    def on_iteration(self, iter_node: ast.expr, ctx: RuleContext) -> None:
        reason = ctx.set_reason(iter_node)
        if reason is None:
            return
        message = _REASON_MESSAGES[reason].format(
            name=_described_name(iter_node)
        )
        ctx.report(iter_node, self.code, message)

    def on_compare(self, node: ast.Compare, ctx: RuleContext) -> None:
        if ctx.loop_depth <= 0:
            return
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) and is_set_expr(
                comparator
            ):
                ctx.report(
                    comparator,
                    self.code,
                    "membership set rebuilt on every loop iteration; "
                    "hoist it out of the loop",
                )
