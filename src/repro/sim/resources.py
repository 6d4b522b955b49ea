"""Shared resources: counted semaphores with FIFO granting.

These model contention points — a disk's command queue slot, the host
CPU, an XBUS port — where processes must wait their turn.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.core import Event, Simulator


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

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
