"""FC007 — exact float equality in sim/policy code.

Greedy-Dual priorities are accumulated floats; exact ``==``/``!=`` is
representation-dependent. Compare with a tolerance or
``math.isclose``.
"""

from __future__ import annotations

import ast

from repro.checks.rules.base import Rule, RuleContext

#: repro.core.policies.histogram holds the HIST policy's predictability
#: classifier (Welford CoV), so its float guards are priority math too.
FLOAT_EQ_SCOPE = ("repro.sim", "repro.core", "repro.analysis")


def is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return is_floatish(node.operand)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


class FloatEqualityRule(Rule):
    code = "FC007"
    summary = "float equality comparison in sim/policy code"
    hint = (
        "compare with a tolerance (abs(a - b) <= eps) or math.isclose"
    )
    scope = FLOAT_EQ_SCOPE

    def on_compare(self, node: ast.Compare, ctx: RuleContext) -> None:
        if not any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            return
        operands = [node.left] + list(node.comparators)
        if any(is_floatish(operand) for operand in operands):
            ctx.report(
                node,
                self.code,
                "exact float equality in sim/policy code; priority "
                "math needs a tolerance",
            )
