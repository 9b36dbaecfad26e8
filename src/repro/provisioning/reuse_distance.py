"""Size-weighted reuse distances (Section 5.1).

A function's reuse distance is the total memory size of the *unique*
functions invoked between successive invocations of that same function
— in the request sequence ``A B C B C A``, the reuse distance of the
second ``A`` is ``size(B) + size(C)``. If the keep-alive cache is at
least that large, the second ``A`` is a warm start (under an optimal
resource-conserving policy), so the CDF of reuse distances *is* the
hit-ratio curve (Equation 2).

Two implementations are provided:

* :func:`reuse_distances_naive` — the conventional scan the paper
  describes, O(N·M) time (N invocations, M unique functions). Kept as
  the executable specification and used by the property tests.
* :func:`reuse_distances` — a Fenwick-tree (binary indexed tree)
  formulation of Mattson's stack algorithm, O(N·log N), numerically
  identical. This is the default.

First invocations of a function have no previous use; their distance
is ``math.inf`` (a compulsory miss at every cache size).
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.domains import int_at_least
from repro.traces.model import Trace

__all__ = ["reuse_distances", "reuse_distances_naive", "FenwickTree"]


class FenwickTree:
    """A binary indexed tree over float weights, 0-indexed externally."""

    def __init__(self, size: int) -> None:
        int_at_least(0).check("size", size)
        self._size = size
        self._tree = [0.0] * (size + 1)

    def add(self, index: int, delta: float) -> None:
        """Add ``delta`` to the weight at ``index``."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        i = index + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> float:
        """Sum of weights at positions [0, index]."""
        if index < 0:
            return 0.0
        i = min(index, self._size - 1) + 1
        total = 0.0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    def range_sum(self, lo: int, hi: int) -> float:
        """Sum of weights at positions [lo, hi]; empty ranges are 0."""
        if hi < lo:
            return 0.0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)

    def __len__(self) -> int:
        return self._size


def reuse_distances_naive(trace: Trace) -> List[float]:
    """Reference O(N·M) reuse-distance scan, one distance per invocation."""
    functions = trace.functions
    invocations = trace.invocations
    last_index: Dict[str, int] = {}
    distances: List[float] = []
    for i, invocation in enumerate(invocations):
        name = invocation.function_name
        previous = last_index.get(name)
        if previous is None:
            distances.append(math.inf)
        else:
            seen: Dict[str, float] = {}
            for j in range(previous + 1, i):
                other = invocations[j].function_name
                if other != name:
                    seen[other] = functions[other].memory_mb
            distances.append(sum(seen.values()))
        last_index[name] = i
    return distances


def reuse_distances(trace: Trace) -> List[float]:
    """Fenwick-tree reuse distances, one per invocation, in trace order.

    The tree holds, at each invocation position, the memory size of
    the invoked function if that position is the function's *most
    recent* occurrence, else zero. The size-weighted count of unique
    functions between two occurrences of ``f`` is then a range sum.

    >>> from repro.traces.model import Trace, TraceFunction, Invocation
    >>> fns = [TraceFunction(n, m, 1.0, 2.0) for n, m in
    ...        [("A", 10), ("B", 20), ("C", 30)]]
    >>> seq = [Invocation(float(i), n) for i, n in enumerate("ABCBCA")]
    >>> reuse_distances(Trace(fns, seq))[-1]  # A after B C B C
    50.0
    """
    functions = trace.functions
    invocations = trace.invocations
    n = len(invocations)
    tree = FenwickTree(n)
    last_index: Dict[str, int] = {}
    distances: List[float] = []
    for i, invocation in enumerate(invocations):
        name = invocation.function_name
        size = functions[name].memory_mb
        previous = last_index.get(name)
        if previous is None:
            distances.append(math.inf)
        else:
            # Positions strictly between the two occurrences hold the
            # most-recent entries of *other* functions only, because
            # f's own most-recent entry sits at `previous`.
            distances.append(tree.range_sum(previous + 1, i - 1))
            tree.add(previous, -size)
        tree.add(i, size)
        last_index[name] = i
    return distances
