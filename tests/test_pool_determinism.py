"""Regression tests: pool iteration order must be hash-seed independent.

``ContainerPool.containers_of`` used to return raw ``set`` iteration
order (the FC003 blind spot the ROADMAP flagged) and
``idle_warm_container`` broke ``last_used_s`` ties by the same raw
order. A seeded replay under different ``PYTHONHASHSEED`` values is the
``simulate`` row of tests/test_determinism.py.
"""

from repro.core.pool import ContainerPool
from repro.traces.model import TraceFunction
from tests.conftest import make_container


def make_function(name, memory_mb=100.0):
    return TraceFunction(name, memory_mb, 0.1, 1.0)


class TestOrderedQueries:
    def test_containers_of_in_id_order(self):
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        containers = [make_container(f, float(i)) for i in range(20)]
        for container in containers:
            pool.add(container)
        ids = [c.container_id for c in pool.containers_of("A")]
        assert ids == sorted(ids)

    def test_function_names_sorted(self):
        pool = ContainerPool(10_000.0)
        for name in ("zeta", "alpha", "mid"):
            pool.add(make_container(make_function(name), 0.0))
        assert pool.function_names() == ["alpha", "mid", "zeta"]

    def test_idle_warm_tie_breaks_to_lowest_id(self):
        pool = ContainerPool(10_000.0)
        f = make_function("A")
        first = make_container(f, 0.0)
        second = make_container(f, 0.0)
        pool.add(first)
        pool.add(second)
        # Identical last_used_s: the winner must be the lowest id, not
        # whatever the hash seed makes the set yield first.
        assert first.last_used_s == second.last_used_s
        assert pool.idle_warm_container("A") is first
