"""Lazy re-exports (PEP 562): every package ``__init__`` resolves its
``__all__`` through this, so importing a package loads no sibling until
one of its names is read (DESIGN.md, "Lazy package namespaces")."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``. ``table`` maps each
    submodule to the space-separated names it provides; a name is
    imported on first access and cached in the package's globals."""
    home = {name: sub for sub, names in table.items() for name in names.split()}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{home[name]}"), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
