# repro-checks-module: repro.sim.fixture_fc003
"""FC003: iterating an unordered set in a deterministic path —
directly, through a variable, through a set-typed ``self`` attribute,
and through a module-level set constant."""

from typing import Dict, Set

ALLOWED_STATES = {"warm", "cold", "draining"}


def first_victims(names):
    order = []
    for name in set(names):
        order.append(name)
    return order


def containers_of(index: Dict[str, Set[int]], function_name):
    # The ContainerPool.containers_of pattern before PR 5: the raw
    # set-typed index reaches the loop through a variable.
    ids = index.get(function_name, set())
    return [i for i in ids]


def annotated_reach(index: Dict[str, Set[int]]):
    known: Set[str] = set(index)
    out = []
    for name in known:
        out.append(name)
    return out


class DrainTracker:
    """The attribute-load gap: ``self._down`` is inferred set-typed
    from ``__init__`` and iterated two methods away."""

    def __init__(self):
        self._down = set()

    def mark(self, name):
        self._down.add(name)

    def drain_order(self):
        return [name for name in self._down]


def walk_constant():
    # The module-constant gap: ALLOWED_STATES is a set defined at
    # module scope.
    return [state for state in ALLOWED_STATES]
