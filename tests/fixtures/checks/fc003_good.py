# repro-checks-module: repro.sim.fixture_fc003_ok
"""FC003 fixed: sets are sorted before iteration (including ones
reached through a variable, a set-typed attribute, or a module
constant), the membership set is hoisted out of the loop, and
membership tests against a set stay allowed — only *iteration* order
is hash-seed dependent."""

from typing import Dict, Set

ALLOWED_STATES = {"warm", "cold", "draining"}


def first_victims(names, skip):
    skipped = set(skip)
    order = []
    for name in sorted(set(names)):
        if name not in skipped:
            order.append(name)
    return order


def containers_of(index: Dict[str, Set[int]], function_name):
    ids = index.get(function_name, set())
    return [i for i in sorted(ids)]


def rebound_is_forgotten(index):
    ids = set(index)
    ids = sorted(ids)  # now a list: iterating it is deterministic
    return [i for i in ids]


class DrainTracker:
    def __init__(self):
        self._down = set()

    def mark(self, name):
        self._down.add(name)

    def drain_order(self):
        return [name for name in sorted(self._down)]

    def is_down(self, name):
        return name in self._down  # membership, not iteration


def walk_constant(items):
    ordered = [state for state in sorted(ALLOWED_STATES)]
    # A local rebind shadows the module set constant: iterating the
    # local (a list here) is fine.
    ALLOWED_STATES_LOCAL = ALLOWED_STATES
    ALLOWED_STATES_LOCAL = sorted(items)
    ordered.extend(name for name in ALLOWED_STATES_LOCAL)
    return ordered
