"""Rule plumbing: the shared AST engine every rule plugs into.

A rule is a small class with event hooks (``on_call``,
``on_iteration``, ``on_except_handler``, ...). The
:class:`FileEngine` walks each parsed module exactly once,
maintaining the shared dataflow state every rule reads through its
:class:`RuleContext`:

* lexical scopes of **set-typed variables** (now fed by the phase-1
  project index: attribute loads, function returns, and module
  constants resolve interprocedurally — the FC003 gap);
* scopes of **shared-state-typed variables** (ContainerPool /
  ``*Policy`` instances, for FC009's lock discipline);
* the loop / lock / function / class stacks.

Adding a rule means adding one module under ``repro/checks/rules/``
and listing it in the registry (see ``docs/static-analysis.md`` for
the walkthrough); the engine, CLI, SARIF output, cache, and ``--stats``
all pick it up from the registry's metadata.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.checks.callgraph import CallGraph
from repro.checks.dataflow import (
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    ProjectIndex,
    dotted_name,
    is_set_annotation,
    is_set_expr,
)

__all__ = [
    "Finding",
    "Rule",
    "RuleContext",
    "FileEngine",
    "NOQA_RE",
    "line_suppresses",
]

#: ``# noqa`` / ``# noqa: FC001, FC003`` — shared by the driver's
#: suppression pass, the noqa-typo guard, and the autofixer (which
#: must not "fix" a violation the author explicitly waved through).
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
    #: single source of metadata for the CLI, SARIF, docs, and tests.
    code: str = "FC000"
    summary: str = ""
    hint: str = ""
    #: Module-prefix scope; ``None`` applies everywhere.
    scope: Optional[Tuple[str, ...]] = None

    def applies(self, module: Optional[str]) -> bool:
        if self.scope is None:
            return True
        return _in_scope(module, self.scope)

    # -- per-file event hooks (override what the rule needs) ---------

    def on_module(self, node: ast.Module, ctx: "RuleContext") -> None:
        pass

    def on_import(self, node: ast.Import, ctx: "RuleContext") -> None:
        pass

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

    def on_mutation(self, node: ast.stmt, ctx: "RuleContext") -> None:
        pass

    def on_function_def(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        ctx: "RuleContext",
    ) -> None:
        pass

    def on_lambda(self, node: ast.Lambda, ctx: "RuleContext") -> None:
        pass

    def on_class_def(self, node: ast.ClassDef, ctx: "RuleContext") -> None:
        pass

    def on_except_handler(
        self, node: ast.ExceptHandler, ctx: "RuleContext"
    ) -> None:
        pass


@dataclass
class _FunctionFrame:
    summary: FunctionSummary
    in_graph: bool


class RuleContext:
    """Everything a rule may read or report through."""

    def __init__(
        self,
        module_summary: ModuleSummary,
        index: ProjectIndex,
        graph: CallGraph,
        select: Optional[Collection[str]],
    ) -> None:
        self.summary = module_summary
        self.path = module_summary.path
        self.module = module_summary.module
        self.index = index
        self.graph = graph
        self._select = frozenset(select) if select is not None else None
        self.findings: List[Finding] = []
        # Engine-maintained dynamic state:
        self.loop_depth = 0
        self.lock_depth = 0
        self.set_vars: List[Set[str]] = [set()]
        #: Names rebound to a non-set value in this scope: shadows a
        #: same-named module set constant (no false positive).
        self.nonset_vars: List[Set[str]] = [set()]
        self.shared_vars: List[Dict[str, str]] = [{}]
        self.local_funcs: List[Set[str]] = []
        self.class_stack: List[ClassSummary] = []
        self.func_stack: List[_FunctionFrame] = []

    # -- reporting ---------------------------------------------------

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

    # -- scope helpers ----------------------------------------------

    def in_scope(self, prefixes: Sequence[str]) -> bool:
        return _in_scope(self.module, prefixes)

    @property
    def current_class(self) -> Optional[ClassSummary]:
        return self.class_stack[-1] if self.class_stack else None

    @property
    def current_function(self) -> Optional[FunctionSummary]:
        return self.func_stack[-1].summary if self.func_stack else None

    @property
    def in_async_function(self) -> bool:
        return bool(self.func_stack) and self.func_stack[-1].summary.is_async

    @property
    def async_reachable(self) -> bool:
        """The enclosing function is async, or the call graph marks it
        reachable from async code."""
        if not self.func_stack:
            return False
        frame = self.func_stack[-1]
        if frame.summary.is_async:
            return True
        return (
            frame.in_graph
            and frame.summary.qualname in self.graph.async_reachable
        )

    @property
    def sync_guarded(self) -> bool:
        """Inside a ``with <lock>:`` block or a function carrying a
        recognized synchronization decorator."""
        if self.lock_depth > 0:
            return True
        return any(
            frame.summary.sync_decorated for frame in self.func_stack
        )

    def all_local_funcs(self) -> Set[str]:
        names: Set[str] = set()
        for scope in self.local_funcs:
            names |= scope
        return names

    # -- dataflow queries --------------------------------------------

    def set_reason(self, node: ast.expr) -> Optional[str]:
        """Why ``node`` is believed to evaluate to a set, or ``None``.

        Reasons: ``"literal"`` (a set expression right there),
        ``"var"`` (a local known to hold one), ``"attr"`` (a
        set-typed ``self`` attribute from the class summary),
        ``"call"`` (a call resolving to a set-returning function), or
        ``"const"`` (a module-level set constant, local or imported).
        """
        if is_set_expr(node):
            return "literal"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault")
            and any(is_set_expr(arg) for arg in node.args[1:])
        ):
            return "literal"
        if isinstance(node, ast.Name):
            if node.id in self.set_vars[-1]:
                return "var"
            if node.id in self.nonset_vars[-1]:
                return None
            if self.index.module_set_constant(self.module, node.id):
                return "const"
            if self.index.imported_set_constant(self.module, node.id):
                return "const"
            return None
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.current_class is not None
                and node.attr in self.current_class.set_attrs
            ):
                return "attr"
            raw = dotted_name(node)
            if raw is not None and self.index.imported_set_constant(
                self.module, raw
            ):
                return "const"
            return None
        if isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            if raw is None:
                return None
            fn = self.index.resolve_function(
                raw, self.module, self.current_class
            )
            if fn is not None and self.index.returns_set(
                fn, self.module, self.current_class
            ):
                return "call"
        return None

    def shared_base(self, node: ast.expr) -> Optional[str]:
        """The shared-state type name behind ``node`` (a variable or
        ``self`` attribute holding a ContainerPool / policy), else
        ``None``."""
        if isinstance(node, ast.Name):
            return self.shared_vars[-1].get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.current_class is not None
            and node.attr in self.current_class.shared_attrs
        ):
            return node.attr
        return None


_LOCKISH = ("lock", "mutex", "semaphore", "condition")


def _is_lock_expr(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    raw = dotted_name(target)
    if raw is None:
        return False
    tail = raw.split(".")[-1].lower()
    return any(fragment in tail for fragment in _LOCKISH)


class FileEngine(ast.NodeVisitor):
    """Single-pass walker dispatching events to the active rules."""

    def __init__(
        self,
        module_summary: ModuleSummary,
        index: ProjectIndex,
        graph: CallGraph,
        rules: Sequence[Rule],
        select: Optional[Collection[str]],
    ) -> None:
        self.ctx = RuleContext(module_summary, index, graph, select)
        self.rules = [
            rule for rule in rules if rule.applies(module_summary.module)
        ]

    def run(self, tree: ast.Module) -> List[Finding]:
        for rule in self.rules:
            rule.on_module(tree, self.ctx)
        self.visit(tree)
        return self.ctx.findings

    # -- imports -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for rule in self.rules:
            rule.on_import(node, self.ctx)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for rule in self.rules:
            rule.on_import_from(node, self.ctx)
        self.generic_visit(node)

    # -- assignments: dataflow bookkeeping then rule dispatch --------

    def _track_assignment(
        self,
        target: ast.expr,
        value: Optional[ast.expr],
        annotation: Optional[ast.expr] = None,
    ) -> None:
        ctx = self.ctx
        if not isinstance(target, ast.Name):
            return
        set_scope = ctx.set_vars[-1]
        if (
            value is not None and ctx.set_reason(value) is not None
        ) or is_set_annotation(annotation):
            set_scope.add(target.id)
            ctx.nonset_vars[-1].discard(target.id)
        else:
            # Rebound to something else: stop treating it as a set.
            set_scope.discard(target.id)
            if value is not None:
                ctx.nonset_vars[-1].add(target.id)
        shared_scope = ctx.shared_vars[-1]
        shared = _shared_value_type(value, annotation, ctx)
        if shared is not None:
            shared_scope[target.id] = shared
        elif value is not None or annotation is not None:
            shared_scope.pop(target.id, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assignment(target, node.value)
        for rule in self.rules:
            rule.on_mutation(node, self.ctx)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._track_assignment(node.target, node.value, node.annotation)
        for rule in self.rules:
            rule.on_mutation(node, self.ctx)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        for rule in self.rules:
            rule.on_mutation(node, self.ctx)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for rule in self.rules:
            rule.on_mutation(node, self.ctx)
        self.generic_visit(node)

    # -- loops and comprehensions ------------------------------------

    def visit_For(self, node: ast.For) -> None:
        for rule in self.rules:
            rule.on_iteration(node.iter, self.ctx)
        self.ctx.loop_depth += 1
        self.generic_visit(node)
        self.ctx.loop_depth -= 1

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        for rule in self.rules:
            rule.on_iteration(node.iter, self.ctx)
        self.ctx.loop_depth += 1
        self.generic_visit(node)
        self.ctx.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.ctx.loop_depth += 1
        self.generic_visit(node)
        self.ctx.loop_depth -= 1

    def _visit_comprehension(
        self,
        node: Union[
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp
        ],
    ) -> None:
        for generator in node.generators:
            for rule in self.rules:
                rule.on_iteration(generator.iter, self.ctx)
        self.ctx.loop_depth += 1
        self.generic_visit(node)
        self.ctx.loop_depth -= 1

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

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

    # -- locks -------------------------------------------------------

    def _visit_with(
        self, node: Union[ast.With, ast.AsyncWith]
    ) -> None:
        locked = any(
            _is_lock_expr(item.context_expr) for item in node.items
        )
        if locked:
            self.ctx.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.ctx.lock_depth -= 1

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # -- definitions -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for rule in self.rules:
            rule.on_class_def(node, self.ctx)
        summary = self.ctx.summary.classes.get(node.name)
        if summary is None:
            prefix = f"{self.ctx.module}." if self.ctx.module else ""
            summary = ClassSummary(
                name=node.name, qualname=f"{prefix}{node.name}"
            )
        self.ctx.class_stack.append(summary)
        self.generic_visit(node)
        self.ctx.class_stack.pop()

    def _function_summary_for(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> Tuple[FunctionSummary, bool]:
        ctx = self.ctx
        owner: Optional[FunctionSummary] = None
        if ctx.func_stack:
            owner = None  # nested defs are not in the project graph
        elif ctx.current_class is not None:
            owner = ctx.current_class.methods.get(node.name)
        else:
            owner = ctx.summary.functions.get(node.name)
        if owner is not None:
            return owner, True
        from repro.checks.dataflow import _summarize_function

        return _summarize_function(node, f"<local>.{node.name}"), False

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        ctx = self.ctx
        for rule in self.rules:
            rule.on_function_def(node, ctx)
        if ctx.local_funcs:
            ctx.local_funcs[-1].add(node.name)
        summary, in_graph = self._function_summary_for(node)
        ctx.func_stack.append(_FunctionFrame(summary, in_graph))
        ctx.local_funcs.append(set())
        ctx.set_vars.append(set())
        ctx.nonset_vars.append(set())
        shared_frame: Dict[str, str] = {}
        all_args = list(node.args.args) + list(node.args.kwonlyargs)
        all_args += list(node.args.posonlyargs)
        for arg in all_args:
            shared = _shared_annotation_type(arg.annotation)
            if shared is not None:
                shared_frame[arg.arg] = shared
        ctx.shared_vars.append(shared_frame)
        self.generic_visit(node)
        ctx.shared_vars.pop()
        ctx.nonset_vars.pop()
        ctx.set_vars.pop()
        ctx.local_funcs.pop()
        ctx.func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for rule in self.rules:
            rule.on_lambda(node, self.ctx)
        self.generic_visit(node)

    # -- error handling ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        for rule in self.rules:
            rule.on_except_handler(node, self.ctx)
        self.generic_visit(node)


def _shared_annotation_type(annotation: Optional[ast.expr]) -> Optional[str]:
    from repro.checks.dataflow import (
        SHARED_STATE_CLASS,
        SHARED_STATE_SUFFIX,
    )

    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    raw = (
        node.value
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        else dotted_name(node)
    )
    if not isinstance(raw, str):
        return None
    tail = raw.split("[", 1)[0].strip().split(".")[-1]
    if tail == SHARED_STATE_CLASS or (
        tail.endswith(SHARED_STATE_SUFFIX) and tail != SHARED_STATE_SUFFIX
    ):
        return tail
    return None


def _shared_value_type(
    value: Optional[ast.expr],
    annotation: Optional[ast.expr],
    ctx: RuleContext,
) -> Optional[str]:
    from repro.checks.dataflow import (
        SHARED_STATE_CLASS,
        SHARED_STATE_SUFFIX,
    )

    annotated = _shared_annotation_type(annotation)
    if annotated is not None:
        return annotated
    if isinstance(value, ast.Call):
        raw = dotted_name(value.func)
        if raw is not None:
            tail = raw.split(".")[-1]
            if tail == SHARED_STATE_CLASS or (
                tail.endswith(SHARED_STATE_SUFFIX)
                and tail != SHARED_STATE_SUFFIX
            ):
                return tail
    if isinstance(value, ast.Name):
        return ctx.shared_vars[-1].get(value.id)
    if value is not None:
        shared = ctx.shared_base(value)
        if shared is not None and isinstance(value, ast.Attribute):
            return shared
    return None
