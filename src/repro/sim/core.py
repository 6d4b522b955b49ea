"""Core event loop: :class:`Simulator`, :class:`Event` and :class:`Process`.

The kernel is deliberately small.  An :class:`Event` is a one-shot
condition that processes can wait on; a :class:`Process` wraps a Python
generator and is itself an event (it fires when the generator returns,
which makes joins trivial: ``yield other_process``).

Semantics follow SimPy closely:

* ``event.succeed(value)`` / ``event.fail(exc)`` *trigger* the event; its
  callbacks run when the event is popped from the queue (same simulated
  instant, deterministic FIFO order among same-time events).
* A process that yields an event is resumed with the event's value, or
  has the event's exception thrown into it.
* A failing process re-raises out of :meth:`Simulator.run` unless another
  process is waiting on it, in which case the exception propagates to the
  waiter instead.

Fast-path invariants (see DESIGN.md §7): every scheduling action
pushes exactly one heap entry, drawing one sequence number, and
same-time entries fire in sequence order.  The optimizations below —
``__slots__``, direct process starts instead of bootstrap events,
events and processes that push their own entries inline, the
``_waiter`` slot that holds an event's first listener (a process or an
:class:`AllOf`) without a callbacks list, :meth:`Simulator.fork`,
which starts a stage's legs and builds their join in one call, and the
one dispatch loop (:meth:`Simulator._loop`), which batch-pops each
instant, advances generators itself in the common cases behind one
slow path (:meth:`Process._step`) and counts joins down itself behind
another (:meth:`AllOf._check`) — change wall-clock cost only, never
simulated clocks or results.  ``heapq.heappush`` is looked up at every
call, so trace tooling can hook it to see every scheduling action.

Heap entries are ``(when, seq, kind, obj)`` tuples.  ``seq`` is unique,
so comparisons never reach ``obj``.  Kinds:

* ``_KIND_FIRE`` (0): ``obj`` is an :class:`Event`; fire its callbacks.
* ``_KIND_START`` (1): ``obj`` is a :class:`Process`; run its first step.
  This replaces the old per-process bootstrap :class:`Event` while
  consuming the same single sequence number.
"""

from __future__ import annotations

import heapq
from itertools import count
from operator import attrgetter
from types import GeneratorType
from typing import (Any, Callable, Generator, Iterable, Optional, Sequence,
                    Union)

from repro.errors import SimulationError
from repro.obs.session import observe_simulator

_UNSET = object()

_KIND_FIRE = 0
_KIND_START = 1

#: A join's value: its constituents' values, collected in C.
_value_of = attrgetter("_value")


SimGenerator = Generator["Event", Any, Any]

#: What an event's ``callbacks`` list holds: processes and conditions
#: resumed by the dispatch loop, or plain callables from add_callback().
_Listener = Union["Process", "AllOf", Callable[["Event"], None]]


def _noop(_event: "Event") -> None:
    return None


def _iterator_name(body: Any, name: str) -> str:
    """A process body that is not a plain generator: accept any
    iterator with ``send`` and name it; reject everything else."""
    if not hasattr(body, "send"):
        raise SimulationError(
            f"process body must be a generator, got {body!r}")
    return name or getattr(body, "__name__", "process")


class Event:
    """A one-shot occurrence that processes may wait on.

    ``callbacks`` stays ``None`` until a second listener appears: the
    first listener — a waiting process or an :class:`AllOf` — is held
    in ``_waiter`` and resumed by the dispatch loop directly, without
    allocating or walking a list.  Later listeners (processes, conditions
    or plain callables) go into ``callbacks`` and run after it, in
    registration order.
    """

    __slots__ = ("sim", "callbacks", "_waiter", "_value", "_exc",
                 "_processed")

    #: True on :class:`AllOf`: a first listener that the dispatch loop
    #: counts down instead of resuming (one attribute load, where a
    #: ``type()`` test costs a call).
    _is_join = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[_Listener]] = None
        self._waiter: Optional[Union["Process", "AllOf"]] = None
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _UNSET or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has fully fired)."""
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _UNSET:
            raise SimulationError("event has no value yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET or self._exc is not None:
            raise SimulationError("event already triggered")
        self._value = value
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_FIRE, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _UNSET or self._exc is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._exc = exc
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_FIRE, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event fires (immediately if fired)."""
        if self._processed:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def _listen(self, listener: Union["Process", "AllOf"]) -> None:
        """Register a listener on this unprocessed event: the first
        takes the ``_waiter`` slot, later ones queue in ``callbacks``."""
        if self._waiter is None and self.callbacks is None:
            self._waiter = listener
        elif self.callbacks is None:
            self.callbacks = [listener]
        else:
            self.callbacks.append(listener)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Built only by :meth:`Simulator.timeout`, which fills the slots and
    pushes the heap entry itself: timeouts are the hottest allocation
    in the kernel, and they trigger at construction time.
    """

    __slots__ = ()


class Process(Event):
    """A running simulation activity wrapping a generator.

    The process *is* the event of its own termination: its value is the
    generator's return value, and a failure inside the generator fails
    the event.  Built only by :meth:`Simulator.process` and
    :meth:`Simulator.fork`.
    """

    __slots__ = ("_generator", "name")

    _generator: SimGenerator
    name: str

    # -- internal ---------------------------------------------------------
    def _step(self, send: Any = None, throw: Optional[BaseException] = None,
              target: Any = _UNSET) -> None:
        """Resume the generator and wait on what it yields.

        The one slow path behind the dispatch loop's inline resumes: it
        throws a failed event's exception in, continues at once past
        events that already fired, fails the process when the generator
        raises or yields a non-:class:`Event`, and queues behind an
        event's first listener.  The loop passes ``target`` when it
        resumed the generator itself and the yield needs any of this.
        """
        generator = self._generator
        while True:
            if target is _UNSET:
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        target = generator.throw(exc)
                    else:
                        target = generator.send(send)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:  # noqa: BLE001 - must capture all
                    self._fail_process(exc)
                    return
            if not isinstance(target, Event):
                self._fail_process(SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances"))
                return
            if target._processed:
                # Already fired: continue synchronously.
                send, throw = target._value, target._exc
                target = _UNSET
                continue
            target._listen(self)
            return

    def _fail_process(self, exc: BaseException) -> None:
        if self._waiter is not None or self.callbacks:
            self.fail(exc)
        else:
            # Nobody is waiting: surface the error out of run().
            self._exc = exc
            self._value = _UNSET
            self.sim._crash(exc)


class AllOf(Event):
    """Fires when every constituent event has fired; value is their values.

    As a constituent's first listener it sits in that event's
    ``_waiter`` slot, and the dispatch loop counts it down without a
    call.  :meth:`_check` is the slow path: a failed constituent, a
    join queued in a constituent's ``callbacks``, and constituents that
    had already fired when the join was built.
    """

    __slots__ = ("_events", "_pending")

    _is_join = True

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        constituents = self._events = list(events)
        self._pending = len(constituents)
        for event in constituents:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not constituents:
            self.succeed([])
            return
        for event in constituents:
            if event._processed:
                self._check(event)
            else:
                event._listen(self)

    def _check(self, event: Event) -> None:
        if self._value is not _UNSET or self._exc is not None:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(list(map(_value_of, self._events)))


class Simulator:
    """The event loop: a priority queue of (time, sequence, kind, obj)."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = count()
        self._crashed: Optional[BaseException] = None
        # Observability (DESIGN.md §8): tracer defaults to the shared
        # NULL_TRACER unless an observe(trace=True) session is active,
        # which also installs the data path's span sites.  Both
        # observe and never schedule — neither may consume sequence
        # numbers.
        self.tracer, self.metrics = observe_simulator(self)

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout.callbacks = None
        timeout._waiter = None
        timeout._value = delay if value is None else value
        timeout._exc = None
        timeout._processed = False
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), _KIND_FIRE, timeout))
        return timeout

    def process(self, generator: SimGenerator, name: str = "") -> Process:
        if type(generator) is not GeneratorType:
            name = _iterator_name(generator, name)
        elif not name:
            name = generator.__name__
        tracer = self.tracer
        if tracer.enabled:
            # Named from the original generator above: the determinism
            # fingerprint includes process names, which must not change
            # with tracing on.
            generator = tracer.scoped(generator)
        proc = Process.__new__(Process)
        proc.sim = self
        proc.callbacks = None
        proc._waiter = None
        proc._value = _UNSET
        proc._exc = None
        proc._processed = False
        proc._generator = generator
        proc.name = name
        # Kick off at the current instant: one START entry.
        heapq.heappush(self._heap,
                       (self.now, next(self._seq), _KIND_START, proc))
        return proc

    def fork(self, generators: Sequence[SimGenerator],
             names: Optional[Sequence[str]] = None) -> AllOf:
        """Start one process per generator and return their join.

        The same heap entries as ``all_of([process(g, n) ...])``: one
        START entry per leg, in order, each leg named as
        :meth:`process` names it.  Every leg is checked before the
        first is pushed, and each leg's ``_waiter`` is the join from
        birth, so nothing is registered after the fact.  An empty fork
        succeeds at once with ``[]``, as ``all_of([])`` does.
        """
        join = AllOf.__new__(AllOf)
        join.sim = self
        join.callbacks = None
        join._waiter = None
        join._value = _UNSET
        join._exc = None
        join._processed = False
        legs = join._events = []
        for generator in generators:
            leg = Process.__new__(Process)
            leg.sim = self
            leg.callbacks = None
            leg._waiter = join
            leg._value = _UNSET
            leg._exc = None
            leg._processed = False
            leg._generator = generator
            if type(generator) is GeneratorType:
                leg.name = generator.__name__
            else:
                leg.name = _iterator_name(generator, "")
            legs.append(leg)
        if names is not None:
            if len(names) != len(legs):
                raise SimulationError(
                    f"fork got {len(legs)} generators but "
                    f"{len(names)} names")
            for leg, name in zip(legs, names):
                if name:
                    leg.name = name
        join._pending = len(legs)
        tracer = self.tracer
        if tracer.enabled:
            # After naming, as in process().
            for leg in legs:
                leg._generator = tracer.scoped(leg._generator)
        heap = self._heap
        seq = self._seq
        now = self.now
        for leg in legs:
            heapq.heappush(heap, (now, next(seq), _KIND_START, leg))
        if not legs:
            join._value = []
            heapq.heappush(heap, (now, next(seq), _KIND_FIRE, join))
        return join

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _crash(self, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = exc

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation clock after running.  ``until`` may not
        lie before the current clock.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until!r}) lies before now={self.now!r}")
        self._loop(until, None)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, generator: SimGenerator, name: str = "") -> Any:
        """Run ``generator`` as a process to completion and return its value.

        This is the bridge between the synchronous public API and the
        event loop: facades wrap an I/O path generator and call this.
        """
        proc = self.process(generator, name=name)
        # Keep a callback registered so a failure propagates here rather
        # than crashing the run loop.
        proc.add_callback(_noop)
        self._loop(None, proc)
        if proc._value is _UNSET and proc._exc is None:
            raise SimulationError(
                f"deadlock: process {proc.name!r} cannot complete "
                "(event queue is empty)")
        return proc.value

    def _loop(self, until: Optional[float], proc: Optional[Process]) -> None:
        """The one dispatch loop behind :meth:`run` and :meth:`run_process`.

        Pops entries in ``(when, seq)`` order until the queue drains,
        the next entry lies past ``until`` (the clock then stops at
        ``until``), or ``proc`` has triggered, so later entries of that
        instant stay queued.

        A START entry, and a FIRE entry whose first listener is a
        process and whose value is set, resume the generator right here.
        If it yields an idle event (no listener, not yet fired), the
        process takes that event's ``_waiter`` slot; if it returns, the
        process pushes its own FIRE entry.  Everything else goes through
        :meth:`Process._step`.  A FIRE entry whose first listener is an
        :class:`AllOf` counts down the join here, and the last
        constituent pushes the join's own FIRE entry; a failed
        constituent goes through :meth:`AllOf._check`.

        Only a slow path (:meth:`Process._step`, :meth:`AllOf._check`,
        a listed callback, a generator that raises) can crash the run
        or trigger ``proc``, so only an entry that took one is followed
        by those two checks.  A resume that parks its process, or a
        join countdown, goes straight to the next entry; a generator
        that returns triggers its own process alone, so it stops the
        loop only when that process is ``proc``.
        """
        heap = self._heap
        heappop = heapq.heappop
        seq = self._seq
        unset = _UNSET
        join_type = AllOf
        event_type = Event
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return
            self.now = when
            # Batch-pop everything scheduled for this instant: one
            # timestamp comparison per entry instead of re-checking
            # ``until`` and re-reading the clock each time.
            while heap and heap[0][0] == when:
                _when, _seq, kind, obj = heappop(heap)
                if kind:
                    # START (unless the process already finished).
                    callbacks = None
                    if obj._value is unset and obj._exc is None:
                        process, send = obj, None
                    else:
                        process = None
                else:
                    obj._processed = True
                    # Nothing registers on a processed event, so the
                    # list is complete before the waiter resumes.
                    callbacks = obj.callbacks
                    # The first listener runs before any listed
                    # callback: the FIFO order one list would give.
                    # A parked process cannot have finished; a
                    # triggered join ignores the constituent.
                    process = obj._waiter
                    if process is not None:
                        obj._waiter = None
                        if process._is_join:
                            join, process = process, None
                            if obj._exc is not None:
                                join._check(obj)
                            elif join._value is unset and join._exc is None:
                                pending = join._pending - 1
                                join._pending = pending
                                if not pending:
                                    # The last constituent: succeed.
                                    join._value = list(
                                        map(_value_of, join._events))
                                    heapq.heappush(heap, (
                                        when, next(seq), _KIND_FIRE, join))
                                if callbacks is None:
                                    continue
                        elif obj._exc is None:
                            send = obj._value
                        else:
                            process._step(None, obj._exc)
                            process = None
                if process is not None:
                    try:
                        target = process._generator.send(send)
                    except StopIteration as stop:
                        process._value = stop.value
                        heapq.heappush(
                            heap, (when, next(seq), _KIND_FIRE, process))
                        if callbacks is None:
                            # Returned: nothing crashed, and only this
                            # process has triggered.
                            if process is proc:
                                return
                            continue
                    except BaseException as exc:  # noqa: BLE001 - must capture all
                        process._fail_process(exc)
                    else:
                        if (isinstance(target, event_type)
                                and target._waiter is None
                                and target.callbacks is None
                                and not target._processed):
                            target._waiter = process
                            if callbacks is None:
                                # Parked: nothing crashed, and ``proc``
                                # cannot have triggered.
                                continue
                        else:
                            process._step(target=target)
                if callbacks is not None:
                    obj.callbacks = None
                    for callback in callbacks:
                        if isinstance(callback, Process):
                            if (callback._value is unset
                                    and callback._exc is None):
                                callback._step(obj._value, obj._exc)
                        elif isinstance(callback, join_type):
                            callback._check(obj)
                        else:
                            callback(obj)
                if self._crashed is not None:
                    crashed, self._crashed = self._crashed, None
                    raise crashed
                if proc is not None and (proc._value is not unset
                                         or proc._exc is not None):
                    return
