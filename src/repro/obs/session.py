"""Ambient observation sessions.

Experiments construct their own :class:`Simulator` instances deep
inside their ``run()`` functions, so the CLI cannot hand a tracer to
each one.  Instead, the CLI opens an :func:`observe` session; every
simulator created while it is active registers itself here and — when
the session asked for tracing — receives a live :class:`Tracer`
instead of the null one.  Afterwards the session holds every tracer
and metrics registry the run produced, ready for export.

A tracing session also installs the span table of
:mod:`repro.obs.spans` while it is open, and puts the original methods
back when it closes, normally or by an exception: spans are recorded
only inside ``observe(trace=True)``.  Outside such a session the data
path carries no tracing code at all, and a simulator's tracer is the
shared :data:`NULL_TRACER`.

Outside a session (the default), :func:`observe_simulator` hands out
the shared :data:`NULL_TRACER` and a fresh registry, and costs one
module-global read per ``Simulator()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs import spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span, Tracer

__all__ = ["ObsSession", "observe", "observe_simulator"]

_ACTIVE: Optional["ObsSession"] = None


class ObsSession:
    """Everything observed while one :func:`observe` block was active."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.tracers: list[Tracer] = []
        self.registries: list[MetricsRegistry] = []

    def spans(self) -> list[Span]:
        """All finished spans from every simulator, in creation order
        of the simulators and completion order within each."""
        out: list[Span] = []
        for tracer in self.tracers:
            out.extend(tracer.finished)
        return out

    def metrics_snapshot(self) -> dict:
        """Merged snapshot: ``{"run<N>": registry_snapshot}`` for every
        simulator that exposed at least one counter."""
        out: dict[str, dict] = {}
        for index, registry in enumerate(self.registries):
            if len(registry):
                out[f"run{index}"] = registry.snapshot()
        return out


@contextmanager
def observe(trace: bool = False) -> Iterator[ObsSession]:
    """Collect tracers/registries from every simulator created inside;
    with ``trace``, record spans while the block runs."""
    global _ACTIVE
    session = ObsSession(trace=trace)
    previous, _ACTIVE = _ACTIVE, session
    if trace:
        spans.install()
    try:
        yield session
    finally:
        _ACTIVE = previous
        if trace:
            spans.uninstall()


def observe_simulator(sim) -> tuple:
    """Called by ``Simulator.__init__``: (tracer, metrics) for ``sim``.

    A session's registry keeps its components alive, so the session
    can snapshot them after the simulator's owner has dropped them.
    """
    session = _ACTIVE
    if session is None:
        return NULL_TRACER, MetricsRegistry()
    registry = MetricsRegistry(retain=True)
    session.registries.append(registry)
    if not session.trace:
        return NULL_TRACER, registry
    tracer = Tracer(sim)
    session.tracers.append(tracer)
    return tracer, registry
