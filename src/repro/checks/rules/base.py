"""Rule plumbing: the one AST walk every rule plugs into.

A rule is a small class with event hooks (``on_import_from``,
``on_call``, ``on_compare``, ``on_iteration``). The
:class:`FileEngine` walks each parsed module exactly once and keeps
the state rules read through their :class:`RuleContext`:

* lexical scopes of **set-typed variables** — locals assigned a set
  or annotated as one, ``self`` attributes the enclosing class only
  ever assigns a set, and the module's own set constants;
* the loop depth (FC003's membership sub-rule).

Every fact comes from the file being walked: no file's verdict
depends on another file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Collection, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "Finding",
    "Rule",
    "RuleContext",
    "FileEngine",
    "NOQA_RE",
    "line_suppresses",
    "dotted_name",
    "is_set_expr",
]

#: ``# noqa`` / ``# noqa: FC001, FC003`` — shared by the driver's
#: suppression pass and the noqa-typo guard.
NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+\d+(?:[,\s]+[A-Z]+\d+)*))?",
    re.IGNORECASE,
)


def line_suppresses(line: str, code: str) -> bool:
    """Does ``line`` carry a noqa comment covering ``code``?"""
    match = NOQA_RE.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    wanted = {
        item.strip().upper() for item in re.split(r"[,\s]+", codes)
    }
    return code in wanted


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppressed violation) at a location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def hint(self) -> str:
        from repro.checks.rules import RULES

        return RULES.get(self.code, ("", ""))[1]


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def is_set_expr(node: Optional[ast.expr]) -> bool:
    """Expressions that are *literally* a set: set/frozenset display,
    set comprehension, or a ``set()``/``frozenset()`` call."""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_valued(node: Optional[ast.expr]) -> bool:
    """A literal set, or a ``.get``/``.setdefault`` call whose default
    is one (the idiom set-typed indices are read with)."""
    if node is None:
        return False
    if is_set_expr(node):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("get", "setdefault")
        and any(is_set_expr(arg) for arg in node.args[1:])
    )


_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    """``set``/``Set[...]``-style annotations, dotted or not."""
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: judge the prefix before any subscript.
        text = node.value.split("[", 1)[0].strip()
        return text.split(".")[-1] in _SET_ANNOTATION_NAMES
    dotted = dotted_name(node)
    return dotted is not None and dotted.split(".")[-1] in _SET_ANNOTATION_NAMES


def _module_set_constants(tree: ast.Module) -> FrozenSet[str]:
    """Module-level names only ever bound to a set."""
    sets: Set[str] = set()
    poisoned: Set[str] = set()
    for node in tree.body:
        targets: List[ast.expr]
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets, annotation = [node.target], node.annotation
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _set_valued(node.value) or _is_set_annotation(annotation):
                sets.add(target.id)
            else:
                poisoned.add(target.id)
    return frozenset(sets - poisoned)


def _class_set_attrs(node: ast.ClassDef) -> FrozenSet[str]:
    """``self`` attributes the class only ever assigns a set (in any
    method), plus set-annotated class-level fields. An attribute also
    assigned something else is ambiguous and left out: unknown beats
    wrong."""
    sets: Set[str] = set()
    poisoned: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _is_set_annotation(stmt.annotation):
                sets.add(stmt.target.id)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(stmt):
            value: Optional[ast.expr]
            annotation: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            else:
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if _is_set_annotation(annotation) or (
                annotation is None and _set_valued(value)
            ):
                sets.add(target.attr)
            elif value is not None or annotation is not None:
                poisoned.add(target.attr)
    return frozenset(sets - poisoned)


def _in_scope(module: Optional[str], prefixes: Sequence[str]) -> bool:
    if module is None:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


class Rule:
    """Base class: metadata plus no-op event hooks."""

    #: Rule code (``FC00x``), one-line summary, and fix hint — the
    #: single source of metadata for the CLI, docs, and tests.
    code: str = "FC000"
    summary: str = ""
    hint: str = ""
    #: Module-prefix scope; ``None`` applies everywhere.
    scope: Optional[Tuple[str, ...]] = None

    def applies(self, module: Optional[str]) -> bool:
        if self.scope is None:
            return True
        return _in_scope(module, self.scope)

    # -- event hooks (override what the rule needs) ------------------

    def on_import_from(
        self, node: ast.ImportFrom, ctx: "RuleContext"
    ) -> None:
        pass

    def on_call(
        self, node: ast.Call, dotted: Optional[str], ctx: "RuleContext"
    ) -> None:
        pass

    def on_compare(self, node: ast.Compare, ctx: "RuleContext") -> None:
        pass

    def on_iteration(self, iter_node: ast.expr, ctx: "RuleContext") -> None:
        pass


class RuleContext:
    """Everything a rule may read or report through: one file's facts."""

    def __init__(
        self,
        path: str,
        module: Optional[str],
        tree: ast.Module,
        select: Optional[Collection[str]],
    ) -> None:
        self.path = path
        self.module = module
        self._select = frozenset(select) if select is not None else None
        self.findings: List[Finding] = []
        self.set_constants = _module_set_constants(tree)
        # Engine-maintained walk state:
        self.loop_depth = 0
        self.set_vars: List[Set[str]] = [set()]
        #: Names rebound to a non-set value in this scope: shadows a
        #: same-named module set constant (no false positive).
        self.nonset_vars: List[Set[str]] = [set()]
        #: The set-typed ``self`` attributes of each enclosing class.
        self.class_set_attrs: List[FrozenSet[str]] = []

    def report(self, node: ast.AST, code: str, message: str) -> None:
        if self._select is not None and code not in self._select:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    def set_reason(self, node: ast.expr) -> Optional[str]:
        """Why ``node`` is believed to evaluate to a set, or ``None``.

        Reasons: ``"literal"`` (a set expression right there),
        ``"var"`` (a local known to hold one), ``"attr"`` (a
        set-typed ``self`` attribute of the enclosing class), or
        ``"const"`` (a set constant of this module).
        """
        if _set_valued(node):
            return "literal"
        if isinstance(node, ast.Name):
            if node.id in self.set_vars[-1]:
                return "var"
            if node.id in self.nonset_vars[-1]:
                return None
            if node.id in self.set_constants:
                return "const"
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_set_attrs
            and node.attr in self.class_set_attrs[-1]
        ):
            return "attr"
        return None


class FileEngine(ast.NodeVisitor):
    """Single-pass walker dispatching events to the active rules."""

    def __init__(self, ctx: RuleContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = [rule for rule in rules if rule.applies(ctx.module)]

    def run(self, tree: ast.Module) -> List[Finding]:
        if self.rules:
            self.visit(tree)
        return self.ctx.findings

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for rule in self.rules:
            rule.on_import_from(node, self.ctx)
        self.generic_visit(node)

    # -- assignments: set-type bookkeeping ---------------------------

    def _track_assignment(
        self,
        target: ast.expr,
        value: Optional[ast.expr],
        annotation: Optional[ast.expr] = None,
    ) -> None:
        ctx = self.ctx
        if not isinstance(target, ast.Name):
            return
        if (
            value is not None and ctx.set_reason(value) is not None
        ) or _is_set_annotation(annotation):
            ctx.set_vars[-1].add(target.id)
            ctx.nonset_vars[-1].discard(target.id)
        else:
            # Rebound to something else: stop treating it as a set.
            ctx.set_vars[-1].discard(target.id)
            if value is not None:
                ctx.nonset_vars[-1].add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._track_assignment(node.target, node.value, node.annotation)
        self.generic_visit(node)

    # -- loops and comprehensions ------------------------------------

    def _visit_loop(self, node: ast.AST, iters: Sequence[ast.expr]) -> None:
        for iter_node in iters:
            for rule in self.rules:
                rule.on_iteration(iter_node, self.ctx)
        self.ctx.loop_depth += 1
        self.generic_visit(node)
        self.ctx.loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node, [node.iter])

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node, [node.iter])

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node, [])

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_loop(node, [gen.iter for gen in node.generators])

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_loop(node, [gen.iter for gen in node.generators])

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_loop(node, [gen.iter for gen in node.generators])

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_loop(node, [gen.iter for gen in node.generators])

    # -- expressions -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        for rule in self.rules:
            rule.on_call(node, dotted, self.ctx)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        for rule in self.rules:
            rule.on_compare(node, self.ctx)
        self.generic_visit(node)

    # -- definitions -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.ctx.class_set_attrs.append(_class_set_attrs(node))
        self.generic_visit(node)
        self.ctx.class_set_attrs.pop()

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        ctx = self.ctx
        ctx.set_vars.append(set())
        ctx.nonset_vars.append(set())
        self.generic_visit(node)
        ctx.nonset_vars.pop()
        ctx.set_vars.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)
