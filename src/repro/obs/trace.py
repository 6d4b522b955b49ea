"""Sim-time span tracing.

A :class:`Tracer` records *spans* — named, component-tagged intervals
of simulated time with parent/child structure — as the data path
executes.  Component code instruments itself with::

    with self.sim.tracer.span("disk.read", self.name, nbytes=nbytes):
        ... the timed operation ...

and pays essentially nothing when tracing is off: the default
:data:`NULL_TRACER` answers ``span()`` with a shared no-op handle, so
the disabled cost per operation is one method call returning a
singleton (the kernel itself only ever performs a single
``tracer.enabled`` attribute check, in :meth:`Simulator.process`).

Tracing may *observe* but never *schedule*: a tracer must not create
events, timeouts or processes, and must not consume simulator sequence
numbers — the determinism fingerprint (see tests/test_sim_determinism)
is required to be bit-identical with tracing enabled and disabled.

Parent tracking across concurrent processes
-------------------------------------------
Simulation activities are generators that suspend at every ``yield``,
so a naive global span stack would tangle siblings: a Cougar read
spawns three concurrent legs whose bodies first run long after the
parent suspended.  The tracer therefore keeps one *current span* per
process: :meth:`Simulator.process` routes new process generators
through :meth:`Tracer.scoped`, which captures the spawner's current
span at spawn time and swaps the per-process context in and out around
every resume.  Spans opened inside any leg then parent correctly onto
the span that was open where the leg was spawned.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["Span", "SpanHandle", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One completed (or still-open) traced interval of sim-time."""

    __slots__ = ("id", "name", "component", "start", "end", "parent_id",
                 "nbytes", "attrs")

    def __init__(self, span_id: int, name: str, component: str,
                 nbytes: int = 0, attrs: Optional[dict] = None):
        self.id = span_id
        self.name = name
        self.component = component
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.parent_id: Optional[int] = None
        self.nbytes = nbytes
        self.attrs = attrs

    @property
    def layer(self) -> str:
        """The data-path layer: the dotted prefix of the span name."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> Optional[float]:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span #{self.id} {self.name} [{self.component}] "
                f"{self.start}..{self.end} parent={self.parent_id}>")


class SpanHandle:
    """Context manager that opens/closes one span on its tracer."""

    __slots__ = ("_tracer", "span", "_prev")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span
        self._prev: Optional["SpanHandle"] = None

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach extra attributes to the span."""
        span = self.span
        if span.attrs is None:
            span.attrs = dict(attrs)
        else:
            span.attrs.update(attrs)
        return self

    def __enter__(self) -> "SpanHandle":
        tracer = self._tracer
        span = self.span
        span.start = tracer.sim.now
        parent = tracer._current
        if parent is not None:
            span.parent_id = parent.span.id
        self._prev = parent
        tracer._current = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = self.span
        span.end = tracer.sim.now
        if exc_type is not None:
            self.set(error=exc_type.__name__)
        tracer._current = self._prev
        tracer.finished.append(span)
        return False


class Tracer:
    """Records a span tree against a simulator's clock."""

    enabled = True

    def __init__(self, sim):
        self.sim = sim
        self.finished: list[Span] = []
        self._next_id = 0
        self._current: Optional[SpanHandle] = None

    # -- recording ------------------------------------------------------
    def span(self, name: str, component: str = "", nbytes: int = 0,
             **attrs: Any) -> SpanHandle:
        """A context manager recording one span; parent is whatever
        span is current in the opening process when it enters."""
        self._next_id += 1
        return SpanHandle(self, Span(self._next_id, name, component,
                                     nbytes, attrs or None))

    def reset(self) -> None:
        """Drop all recorded spans (the current open stack is kept)."""
        self.finished.clear()

    # -- queries --------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        return list(self.finished)

    def roots(self) -> list[Span]:
        return [span for span in self.finished if span.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        return [child for child in self.finished
                if child.parent_id == span.id]

    # -- per-process context propagation --------------------------------
    def scoped(self, generator) -> Iterator:
        """Wrap a process generator for context propagation.

        The wrapper captures the spawner's current span now (at spawn
        time) and installs it as the child's context around every
        resume, saving and restoring whatever context the interleaved
        neighbour processes had.  It forwards sends, throws (failed
        events, close) and the return value unchanged, and performs
        no scheduling of its own.

        This must be a plain function: a generator's body runs only at
        its first resume, long after the spawner suspended, so the
        spawn-time context has to be read here and passed in.
        """
        return self._scoped(generator, self._current)

    def _scoped(self, generator,
                ctx: Optional[SpanHandle]) -> Iterator:
        send: Any = None
        throw: Optional[BaseException] = None
        while True:
            prev = self._current
            self._current = ctx
            try:
                if throw is not None:
                    exc, throw = throw, None
                    item = generator.throw(exc)
                else:
                    item = generator.send(send)
            except StopIteration as stop:
                self._current = prev
                return stop.value
            except BaseException:
                self._current = prev
                raise
            ctx = self._current
            self._current = prev
            try:
                send = yield item
            except BaseException as exc:
                throw = exc


class _NullSpanHandle:
    """Shared no-op span handle: enter/exit/set do nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The disabled tracer: every span is the shared no-op handle."""

    __slots__ = ()

    enabled = False

    def span(self, name: str, component: str = "", nbytes: int = 0,
             **attrs: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def spans(self) -> list[Span]:
        return []

    def reset(self) -> None:
        return None


#: The shared disabled tracer every fresh :class:`Simulator` gets.
NULL_TRACER = NullTracer()
