"""Shared resources: counted semaphores with FIFO granting.

These model contention points — a disk's command queue slot, the host
CPU, an XBUS port — where processes must wait their turn.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.core import _KIND_FIRE, _UNSET, Event, Simulator


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...  # hold the resource
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        sim = self.sim
        # Event.__init__ inlined, as in Simulator.timeout/process.
        event = Event.__new__(Event)
        event.sim = sim
        event.callbacks = None
        event._waiter = None
        event._exc = None
        event._processed = False
        if self._in_use < self.capacity:
            # Granted at once: succeed() with its entry pushed inline.
            self._in_use += 1
            event._value = None
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            event._value = _UNSET
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter: succeed() with
            # its entry pushed inline.
            event = self._waiters.popleft()
            event._value = None
            sim = self.sim
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            self._in_use -= 1
