"""The event emitter threaded through the simulator stack.

Design goal: **near-zero cost when disabled**. Every instrumented
component stores ``None`` instead of a tracer when tracing is off, so
the hot path pays exactly one local-variable ``is None`` test per
emission site (measured <2% on the throughput benchmark by
``benchmarks/bench_simulator_throughput.py``). The helper
:func:`active_tracer` normalizes whatever the caller passed (a tracer,
``None``, or the :data:`NULL_TRACER` singleton) into that convention.

When enabled, a :class:`Tracer` stamps each event with its bound
context — constant fields like ``policy="GD"`` or ``server=3`` set
once via :meth:`Tracer.bind` — and hands the finished dict to its
sink. ``strict=True`` validates every event against
:mod:`repro.obs.events` at emission time (tests and debugging; off in
production paths). Only a strict tracer loads the schema (when built),
and nothing here loads the sinks: an untraced run loads neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

if TYPE_CHECKING:
    from repro.obs.sinks import Sink

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "active_tracer"]


class Tracer:
    """Emits structured lifecycle events to a sink."""

    __slots__ = ("sink", "_context", "_validate")

    #: Class-level so the disabled check never touches the instance dict.
    enabled: bool = True

    def __init__(
        self,
        sink: Sink,
        context: Optional[Mapping[str, Any]] = None,
        strict: bool = False,
    ) -> None:
        self.sink = sink
        self._context: Dict[str, Any] = dict(context or {})
        self._validate: Optional[Callable[[Mapping[str, Any]], None]] = None
        if strict:
            from repro.obs.events import validate_event

            self._validate = validate_event

    @property
    def strict(self) -> bool:
        """Whether :meth:`emit` validates each event (fixed when built)."""
        return self._validate is not None

    @property
    def context(self) -> Dict[str, Any]:
        return dict(self._context)

    def bind(self, **context: Any) -> "Tracer":
        """A child tracer writing to the same sink with extra constant
        fields (e.g. ``tracer.bind(server=2)`` inside a cluster)."""
        merged = dict(self._context)
        merged.update(context)
        return Tracer(self.sink, merged, self.strict)

    def emit(self, event_type: str, time_s: float, **fields: Any) -> None:
        """Send one event. Payload fields are keyword arguments."""
        event: Dict[str, Any] = {"event": event_type, "time_s": time_s}
        if self._context:
            event.update(self._context)
        event.update(fields)
        if self._validate is not None:
            self._validate(event)
        self.sink.emit(event)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Tracer(sink={type(self.sink).__name__}, "
            f"context={self._context!r})"
        )


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    Exists so call sites may hold a tracer unconditionally;
    performance-critical components instead store ``None`` (see
    :func:`active_tracer`) and skip the call entirely.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=None)  # type: ignore[arg-type]

    def bind(self, **context: Any) -> "NullTracer":
        return self

    def emit(self, event_type: str, time_s: float, **fields: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared disabled tracer, for APIs that want a tracer-shaped default.
NULL_TRACER = NullTracer()


def active_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Normalize a tracer argument for a hot-path component.

    Returns the tracer itself when it is enabled, else ``None`` — so
    instrumented code can guard every emission with a plain
    ``if tracer is not None`` (the cheapest possible disabled path).
    """
    if tracer is None or not tracer.enabled:
        return None
    return tracer
