"""Shared fixtures: small deterministic traces and datasets."""

from __future__ import annotations

import itertools

import pytest

from repro.checks.sanitize import set_sanitize
from repro.core.container import Container
from repro.traces.azure import AzureGeneratorConfig, generate_azure_dataset
from repro.traces.model import Invocation, Trace, TraceFunction


def make_function(
    name: str = "f",
    memory_mb: float = 256.0,
    warm_time_s: float = 1.0,
    cold_time_s: float = 3.0,
) -> TraceFunction:
    return TraceFunction(
        name=name,
        memory_mb=memory_mb,
        warm_time_s=warm_time_s,
        cold_time_s=cold_time_s,
    )


#: Ids for the containers unit tests build by hand, outside any run:
#: unique and in creation order, all a pool asks of them.
_unit_container_ids = itertools.count()


def make_container(function: TraceFunction, created_at_s: float = 0.0) -> Container:
    return Container(function, created_at_s, next(_unit_container_ids))


def make_trace(sequence, functions=None, gap_s: float = 10.0) -> Trace:
    """A trace from a name sequence like "ABCBCA", default functions.

    Invocations are spaced ``gap_s`` apart (long enough that each
    completes before the next arrives, with the default 1 s warm /
    3 s cold times).
    """
    names = sorted(set(sequence))
    if functions is None:
        functions = [make_function(name) for name in names]
    invocations = [
        Invocation(i * gap_s, name) for i, name in enumerate(sequence)
    ]
    return Trace(functions, invocations, name="seq")


def from_columns(trace: Trace) -> Trace:
    """``trace`` rebuilt from plain column lists, with no
    :class:`Invocation` in between: the loaders' construction."""
    return Trace.from_columns(
        trace.functions.values(), trace.times_s.tolist(),
        trace.function_ids.tolist(), name=trace.name,
    )


@pytest.fixture
def sanitized():
    """Arm the runtime invariant sanitizer (REPRO_SANITIZE=1) for
    everything the test constructs."""
    set_sanitize(True)
    yield
    set_sanitize(None)


@pytest.fixture
def unsanitized():
    """Disarm the sanitizer, even under REPRO_SANITIZE=1: a sanitized run
    takes the arrival loop by design, so a test of a kernel, or of the
    plain hot path's cost, pins it off."""
    set_sanitize(False)
    yield
    set_sanitize(None)


@pytest.fixture
def abc_functions():
    """Three functions with distinct sizes and costs."""
    return [
        make_function("A", memory_mb=100.0, warm_time_s=1.0, cold_time_s=2.0),
        make_function("B", memory_mb=200.0, warm_time_s=1.0, cold_time_s=4.0),
        make_function("C", memory_mb=400.0, warm_time_s=1.0, cold_time_s=1.5),
    ]


@pytest.fixture
def small_dataset():
    """A small synthetic Azure dataset, cached per test module."""
    return generate_azure_dataset(
        AzureGeneratorConfig(num_functions=120, max_daily_invocations=2000),
        seed=11,
    )
