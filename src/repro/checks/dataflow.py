"""Phase 1 of the two-phase analysis: per-file dataflow summaries.

The linter used to be a single-pass, per-module AST walk, which is why
FC003 could not follow a set through an attribute load or a function
return (the standing ROADMAP gap closed by this module). The engine
now runs in two phases:

1. **summarize** — every checked file is reduced to a
   :class:`ModuleSummary`: module-level set constants, class attribute
   types inferred from ``__init__`` assignments and dataclass field
   annotations, per-function return summaries and raw call targets,
   the import table, and the cross-module symbol FC004 judges
   against (the event vocabulary). The extraction is *purely
   syntactic* (sources are parsed, never imported) and the result is
   JSON-serializable so the incremental cache can keep it keyed by
   content hash;
2. **resolve** — a :class:`ProjectIndex` stitches the summaries
   together and answers the interprocedural questions rules ask:
   "does this call return a set?", "is ``self._attr`` set-typed?",
   "what does this imported name resolve to?". Resolution follows
   ``__init__`` re-exports with a hop limit and degrades to *unknown*
   (``None``) on cycles, ``functools.partial`` indirection, and
   decorators it cannot see through — a wrong summary is worse than
   no summary (asserted by ``tests/test_checks_dataflow.py``).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectSymbols",
    "summarize_module",
    "module_name_for",
    "dotted_name",
    "is_set_expr",
    "is_set_annotation",
    "SHARED_STATE_CLASS",
    "SHARED_STATE_SUFFIX",
]

import re

_PRAGMA_RE = re.compile(r"#\s*repro-checks-module:\s*([\w.]+)")

#: The shared-mutable-state registry FC009 guards: the keep-alive pool
#: itself plus every policy class (their Greedy-Dual bookkeeping is
#: exactly the state a threaded live frontend would race on).
SHARED_STATE_CLASS = "ContainerPool"
SHARED_STATE_SUFFIX = "Policy"

#: Decorators the return-summary analysis can safely see through.
#: Anything else makes the decorated function's summary *unknown* —
#: a decorator may replace the callable wholesale.
_BENIGN_DECORATORS = frozenset(
    {
        "staticmethod",
        "classmethod",
        "property",
        "abstractmethod",
        "abc.abstractmethod",
        "functools.wraps",
        "functools.lru_cache",
        "lru_cache",
        "functools.cache",
        "override",
        "typing.override",
    }
)

#: Re-export resolution hop limit (``from repro.sim import simulate``
#: through package ``__init__`` chains). Deeper chains degrade to
#: unknown rather than looping.
_MAX_HOPS = 6


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


def module_name_for(path: pathlib.Path, source: str) -> Optional[str]:
    """The dotted module a file belongs to, or ``None``.

    A ``# repro-checks-module: <dotted>`` pragma in the first lines
    wins; otherwise the name is derived by walking up through package
    directories (ones holding ``__init__.py``).
    """
    head = "\n".join(source.splitlines()[:12])
    match = _PRAGMA_RE.search(head)
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


def is_set_annotation(node: Optional[ast.expr]) -> bool:
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
    if dotted is None:
        return False
    return dotted.split(".")[-1] in _SET_ANNOTATION_NAMES


_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _set_valued(node: Optional[ast.expr]) -> bool:
    """Expressions that definitely produce a set at runtime: literal
    set expressions, and ``.get``/``.setdefault`` calls whose default
    argument is one (the idiom set-typed indices are read with)."""
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


# ----------------------------------------------------------------------
# Summary data model (all JSON-serializable via to_dict/from_dict)
# ----------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """One function or method, reduced to what rules resolve against.

    ``returns`` is a list of per-return-statement classifications:
    ``"set"`` (a literal set expression), ``"other"`` (definitely not
    a set), ``"unknown"``, or ``"call:<raw>"`` — a call whose target
    is resolved lazily by :meth:`ProjectIndex.returns_set`.
    """

    name: str
    qualname: str
    lineno: int = 0
    is_async: bool = False
    is_public: bool = True
    unknown_decorated: bool = False
    sync_decorated: bool = False
    decorators: List[str] = field(default_factory=list)
    returns: List[str] = field(default_factory=list)
    calls: List[str] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Attribute types inferred from ``__init__`` assignments and
    dataclass/class-level annotations, plus the method table."""

    name: str
    qualname: str
    lineno: int = 0
    bases: List[str] = field(default_factory=list)
    set_attrs: List[str] = field(default_factory=list)
    shared_attrs: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything phase 2 needs to know about one source file."""

    path: str
    module: Optional[str] = None
    is_package: bool = False
    concurrency_imports: bool = False
    set_constants: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    event_names: Optional[List[str]] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleSummary":
        summary = cls(path=data["path"])
        summary.module = data.get("module")
        summary.is_package = bool(data.get("is_package", False))
        summary.concurrency_imports = bool(
            data.get("concurrency_imports", False)
        )
        summary.set_constants = list(data.get("set_constants", []))
        summary.imports = dict(data.get("imports", {}))
        summary.functions = {
            name: FunctionSummary(**fn)
            for name, fn in data.get("functions", {}).items()
        }
        summary.classes = {}
        for name, cls_data in data.get("classes", {}).items():
            methods = {
                mname: FunctionSummary(**fn)
                for mname, fn in cls_data.get("methods", {}).items()
            }
            payload = {
                key: value
                for key, value in cls_data.items()
                if key != "methods"
            }
            summary.classes[name] = ClassSummary(methods=methods, **payload)
        events = data.get("event_names")
        summary.event_names = None if events is None else list(events)
        return summary

    def identity_facts(self) -> Dict[str, Any]:
        """The position-independent facts other files' findings can
        depend on — the incremental cache's environment hash is built
        from these, so a pure line-shift edit in one file does not
        invalidate every other file's cached findings."""
        return {
            "module": self.module,
            "concurrency": self.concurrency_imports,
            "set_constants": sorted(self.set_constants),
            "imports": dict(sorted(self.imports.items())),
            "functions": {
                name: (
                    fn.is_async,
                    fn.is_public,
                    fn.unknown_decorated,
                    fn.sync_decorated,
                    tuple(fn.returns),
                    tuple(fn.calls),
                )
                for name, fn in sorted(self.functions.items())
            },
            "classes": {
                name: {
                    "bases": tuple(cls.bases),
                    "set_attrs": sorted(cls.set_attrs),
                    "shared_attrs": sorted(cls.shared_attrs),
                    "methods": {
                        mname: (
                            fn.is_async,
                            fn.is_public,
                            fn.unknown_decorated,
                            fn.sync_decorated,
                            tuple(fn.returns),
                            tuple(fn.calls),
                        )
                        for mname, fn in sorted(cls.methods.items())
                    },
                }
                for name, cls in sorted(self.classes.items())
            },
            "event_names": (
                None
                if self.event_names is None
                else sorted(self.event_names)
            ),
        }


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------

_CONCURRENCY_MODULES = ("threading", "asyncio", "concurrent", "_thread")

_SYNC_DECORATORS = frozenset({"synchronized", "locked", "with_lock"})


def _decorator_names(node: ast.AST) -> List[str]:
    names: List[str] = []
    for decorator in getattr(node, "decorator_list", []):
        target = (
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        dotted = dotted_name(target)
        names.append(dotted if dotted is not None else "<expr>")
    return names


def _classify_return(value: Optional[ast.expr]) -> str:
    if value is None or isinstance(value, ast.Constant):
        return "other"
    if is_set_expr(value):
        return "set"
    if isinstance(value, (ast.List, ast.ListComp, ast.Dict, ast.DictComp,
                          ast.Tuple, ast.GeneratorExp, ast.JoinedStr)):
        return "other"
    if isinstance(value, ast.Call):
        raw = dotted_name(value.func)
        if raw is None:
            return "unknown"
        if raw in ("sorted", "list", "tuple", "dict", "len", "str"):
            return "other"
        return f"call:{raw}"
    if isinstance(value, ast.IfExp):
        left = _classify_return(value.body)
        right = _classify_return(value.orelse)
        if left == right:
            return left
        return "unknown"
    return "unknown"


def _raw_calls(node: ast.AST) -> List[str]:
    """Raw dotted call targets inside one function body (nested defs
    excluded — they have their own summaries)."""
    calls: List[str] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(current, ast.Call):
            raw = dotted_name(current.func)
            if raw is not None:
                calls.append(raw)
        stack.extend(ast.iter_child_nodes(current))
    # Deterministic, de-duplicated order.
    return sorted(set(calls))


def _summarize_function(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    qualname: str,
) -> FunctionSummary:
    decorators = _decorator_names(node)
    unknown = any(
        name not in _BENIGN_DECORATORS and name.split(".")[-1] not in
        _SYNC_DECORATORS
        for name in decorators
    )
    sync = any(name.split(".")[-1] in _SYNC_DECORATORS for name in decorators)
    returns: List[str] = []
    is_generator = False
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(current, (ast.Yield, ast.YieldFrom)):
            is_generator = True
        if isinstance(current, ast.Return):
            returns.append(_classify_return(current.value))
        stack.extend(ast.iter_child_nodes(current))
    if is_generator:
        returns = ["other"]
    elif not returns:
        returns = ["other"]  # implicit `return None`
    if unknown:
        returns = ["unknown"]
    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        is_public=not node.name.startswith("_"),
        unknown_decorated=unknown,
        sync_decorated=sync,
        decorators=decorators,
        returns=returns,
        calls=_raw_calls(node),
    )


def _is_shared_annotation(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    dotted = (
        node.value
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        else dotted_name(node)
    )
    if not isinstance(dotted, str):
        return False
    tail = dotted.split("[", 1)[0].strip().split(".")[-1]
    return tail == SHARED_STATE_CLASS or tail.endswith(SHARED_STATE_SUFFIX)


def _shared_constructor(node: Optional[ast.expr]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    raw = dotted_name(node.func)
    if raw is None:
        return False
    tail = raw.split(".")[-1]
    return tail == SHARED_STATE_CLASS or tail.endswith(SHARED_STATE_SUFFIX)


def _summarize_class(node: ast.ClassDef, module: Optional[str]) -> ClassSummary:
    qual_prefix = f"{module}." if module else ""
    summary = ClassSummary(
        name=node.name,
        qualname=f"{qual_prefix}{node.name}",
        lineno=node.lineno,
        bases=[d for d in (dotted_name(b) for b in node.bases) if d],
    )
    set_attrs: Set[str] = set()
    poisoned: Set[str] = set()
    shared_attrs: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if is_set_annotation(stmt.annotation):
                set_attrs.add(stmt.target.id)
            if _is_shared_annotation(stmt.annotation):
                shared_attrs.add(stmt.target.id)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _summarize_function(
                stmt, f"{summary.qualname}.{stmt.name}"
            )
            summary.methods[stmt.name] = method
            for sub in ast.walk(stmt):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value = sub.target, sub.value
                    annotation = sub.annotation
                if (
                    target is None
                    or not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                if is_set_annotation(annotation) or (
                    annotation is None and _set_valued(value)
                ):
                    set_attrs.add(attr)
                elif value is not None or annotation is not None:
                    poisoned.add(attr)
                if _is_shared_annotation(annotation) or _shared_constructor(
                    value
                ):
                    shared_attrs.add(attr)
    # An attribute assigned a set in one place and something else in
    # another is ambiguous: drop it (unknown beats wrong).
    summary.set_attrs = sorted(set_attrs - poisoned)
    summary.shared_attrs = sorted(shared_attrs)
    return summary


_TYPE_CHECKING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _top_level(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module statements, ``if TYPE_CHECKING:`` bodies inlined: that is
    where a lazy package ``__init__`` declares its re-exports."""
    for node in tree.body:
        if isinstance(node, ast.If) and dotted_name(node.test) in _TYPE_CHECKING:
            yield from node.body
        else:
            yield node


def summarize_module(
    tree: ast.Module, path: pathlib.Path, source: str
) -> ModuleSummary:
    """Reduce one parsed file to its :class:`ModuleSummary`."""
    summary = ModuleSummary(
        path=str(path),
        module=module_name_for(path, source),
        is_package=path.name == "__init__.py",
    )
    event_names: Set[str] = set()
    poisoned_constants: Set[str] = set()
    for node in _top_level(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _CONCURRENCY_MODULES:
                    summary.concurrency_imports = True
                local = alias.asname or alias.name.split(".")[0]
                summary.imports[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: anchor at the summarized module.
                anchor = summary.module or ""
                parts = anchor.split(".") if anchor else []
                if not summary.is_package and parts:
                    parts = parts[:-1]
                drop = node.level - 1
                if drop:
                    parts = parts[: len(parts) - drop] if drop <= len(parts) else []
                prefix = ".".join(parts)
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            if base.split(".")[0] in _CONCURRENCY_MODULES:
                summary.concurrency_imports = True
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "EVENT_SCHEMAS" and isinstance(
                    node.value, ast.Dict
                ):
                    event_names.update(
                        key.value
                        for key in node.value.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    )
                annotation = (
                    node.annotation
                    if isinstance(node, ast.AnnAssign)
                    else None
                )
                if _set_valued(node.value) or is_set_annotation(annotation):
                    summary.set_constants.append(target.id)
                else:
                    poisoned_constants.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            prefix = f"{summary.module}." if summary.module else ""
            summary.functions[node.name] = _summarize_function(
                node, f"{prefix}{node.name}"
            )
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _summarize_class(
                node, summary.module
            )
    summary.set_constants = sorted(
        set(summary.set_constants) - poisoned_constants
    )
    if event_names:
        summary.event_names = sorted(event_names)
    return summary


# ----------------------------------------------------------------------
# Phase 2: the project index
# ----------------------------------------------------------------------


@dataclass
class ProjectSymbols:
    """The cross-module symbols FC004 judges against."""

    event_names: Set[str] = field(default_factory=set)


#: The canonical event vocabulary, used when the checked file set does
#: not itself (re)define it — e.g. when linting one fixture file.
_CANONICAL_EVENTS = (
    pathlib.Path(__file__).resolve().parents[1] / "obs" / "events.py"
)


def _load_canonical_summary(path: pathlib.Path) -> Optional[ModuleSummary]:
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    return summarize_module(tree, path, source)


class ProjectIndex:
    """Resolves names, returns, and attribute types across the project."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries: List[ModuleSummary] = list(summaries)
        self.by_path: Dict[str, ModuleSummary] = {
            summary.path: summary for summary in self.summaries
        }
        self.by_module: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            if summary.module is not None:
                self.by_module.setdefault(summary.module, summary)
        self.symbols = self._build_symbols()

    # -- symbol table (FC004) ----------------------------------------

    def _build_symbols(self) -> ProjectSymbols:
        symbols = ProjectSymbols()
        for summary in self.summaries:
            if summary.event_names:
                symbols.event_names.update(summary.event_names)
        if not symbols.event_names:
            canonical_events = (
                self.by_path.get(str(_CANONICAL_EVENTS))
                or _load_canonical_summary(_CANONICAL_EVENTS)
            )
            if canonical_events is not None and canonical_events.event_names:
                symbols.event_names = set(canonical_events.event_names)
        return symbols

    # -- name resolution ---------------------------------------------

    def resolve_function(
        self,
        raw: str,
        module: Optional[str],
        cls: Optional[ClassSummary] = None,
    ) -> Optional[FunctionSummary]:
        """Best-effort resolution of a raw call target to a function
        summary; ``None`` means *unknown* (never guess)."""
        if module is None:
            summary = None
        else:
            summary = self.by_module.get(module)
        parts = raw.split(".")
        if parts[0] == "self":
            if cls is None or len(parts) != 2:
                return None
            method = cls.methods.get(parts[1])
            if method is not None:
                return method
            # Unknown inherited method: degrade rather than guess.
            return None
        if len(parts) == 1:
            if summary is not None and raw in summary.functions:
                return summary.functions[raw]
            if summary is not None and raw in summary.imports:
                return self._resolve_dotted(summary.imports[raw])
            return None
        if summary is not None and parts[0] in summary.imports:
            target = summary.imports[parts[0]] + "." + ".".join(parts[1:])
            return self._resolve_dotted(target)
        return self._resolve_dotted(raw)

    def _resolve_dotted(
        self, dotted: str, _hops: int = 0
    ) -> Optional[FunctionSummary]:
        if _hops > _MAX_HOPS:
            return None
        parts = dotted.split(".")
        # Longest module prefix wins.
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            summary = self.by_module.get(module)
            if summary is None:
                continue
            remainder = parts[cut:]
            if not remainder:
                return None  # a module, not a function
            if len(remainder) == 1:
                name = remainder[0]
                if name in summary.functions:
                    return summary.functions[name]
                if name in summary.imports:
                    return self._resolve_dotted(
                        summary.imports[name], _hops + 1
                    )
                return None
            if len(remainder) == 2 and remainder[0] in summary.classes:
                return summary.classes[remainder[0]].methods.get(remainder[1])
            if remainder[0] in summary.imports:
                target = summary.imports[remainder[0]] + "." + ".".join(
                    remainder[1:]
                )
                return self._resolve_dotted(target, _hops + 1)
            return None
        return None

    # -- interprocedural facts ---------------------------------------

    def returns_set(
        self,
        fn: Optional[FunctionSummary],
        module: Optional[str] = None,
        cls: Optional[ClassSummary] = None,
        _visited: Optional[Set[str]] = None,
    ) -> bool:
        """``True`` only when every return path provably yields a set.

        Cycles, unknown decorators, and unresolvable call chains all
        degrade to ``False`` (unknown): FC003 must never flag on a
        guessed summary.
        """
        if fn is None or fn.unknown_decorated or not fn.returns:
            return False
        visited = _visited if _visited is not None else set()
        if fn.qualname in visited:
            return False  # recursion: unknown
        visited.add(fn.qualname)
        owner_module, owner_cls = self._owner_of(fn, module, cls)
        saw_set = False
        for entry in fn.returns:
            if entry == "set":
                saw_set = True
                continue
            if entry.startswith("call:"):
                callee = self.resolve_function(
                    entry[5:], owner_module, owner_cls
                )
                if callee is None or not self.returns_set(
                    callee, owner_module, owner_cls, visited
                ):
                    return False
                saw_set = True
                continue
            return False
        return saw_set

    def _owner_of(
        self,
        fn: FunctionSummary,
        module: Optional[str],
        cls: Optional[ClassSummary],
    ) -> Tuple[Optional[str], Optional[ClassSummary]]:
        """The defining module/class of ``fn`` (so chained calls in a
        callee resolve in the callee's own context, not the caller's)."""
        parts = fn.qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = ".".join(parts[:cut])
            summary = self.by_module.get(candidate)
            if summary is None:
                continue
            remainder = parts[cut:]
            if len(remainder) == 2 and remainder[0] in summary.classes:
                return candidate, summary.classes[remainder[0]]
            return candidate, None
        return module, cls

    def module_set_constant(
        self, module: Optional[str], name: str
    ) -> bool:
        if module is None:
            return False
        summary = self.by_module.get(module)
        return summary is not None and name in summary.set_constants

    def imported_set_constant(
        self, module: Optional[str], raw: str
    ) -> bool:
        """``mod.CONST`` / imported ``CONST`` referring to another
        project module's set-typed constant."""
        if module is None:
            return False
        summary = self.by_module.get(module)
        if summary is None:
            return False
        parts = raw.split(".")
        if len(parts) == 1:
            target = summary.imports.get(raw)
            if target is None:
                return False
        elif parts[0] in summary.imports:
            target = summary.imports[parts[0]] + "." + ".".join(parts[1:])
        else:
            target = raw
        head, _, const = target.rpartition(".")
        if not head:
            return False
        owner = self.by_module.get(head)
        return owner is not None and const in owner.set_constants
