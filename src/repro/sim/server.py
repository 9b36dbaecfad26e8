"""Server resource configuration.

The paper's server-level focus (Section 3's system model) means a
"server" is a memory capacity for the keep-alive cache plus, for the
OpenWhisk invoker model, a CPU core count that bounds concurrent
executions. The trace-driven simulator only constrains memory — the
paper notes CPUs multiplex easily while memory swapping is ruinous, so
memory is the binding resource for keep-alive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import check_fields, int_at_least, knob, positive

__all__ = ["ServerConfig", "GB_MB"]

#: Megabytes per gigabyte, for the GB-axis sweeps of Figures 5 and 6.
GB_MB = 1024.0


@dataclass(frozen=True)
class ServerConfig:
    """Physical resources of one FaaS server."""

    #: ``inf``: an unbounded pool, as :func:`~repro.sim.scheduler.simulate` takes.
    memory_mb: float = knob(positive.or_inf)
    cpu_cores: int = knob(int_at_least(1), 48)  # the paper's evaluation server

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def memory_gb(self) -> float:
        return self.memory_mb / GB_MB
