"""VME interface ports between the XBUS board and disk controllers/host.

The XBUS's four data ports and one control (TMC-VME link) port are the
slow, synchronous interfaces the paper blames for the hardware system
level falling short of its 40 MB/s goal: "our relatively slow,
synchronous VME interface ports ... only support 6.9 megabytes/second
on read operations and 5.9 megabytes/second on write operations"
(Section 2.3).

A VME bus is half-duplex: one transfer at a time, with a direction-
dependent rate.  ``Direction.READ`` moves data *into* XBUS memory
(disk reads), ``Direction.WRITE`` moves data out (disk writes).
"""

from __future__ import annotations

import enum

from repro.errors import SimulationError
from repro.hw.specs import VME_DATA_PORT_SPEC, VmePortSpec
from repro.sim import Resource, Simulator
from repro.units import MB


class Direction(enum.Enum):
    """Transfer direction relative to XBUS memory."""

    READ = "read"    # into XBUS memory
    WRITE = "write"  # out of XBUS memory


class VmePort:
    """One half-duplex VME port with asymmetric read/write rates."""

    def __init__(self, sim: Simulator, spec: VmePortSpec = VME_DATA_PORT_SPEC,
                 name: str = "vme"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._lock = Resource(sim, capacity=1, name=f"{name}.lock")
        #: Optional fault-injection hook (see repro.faults.inject).
        self.faults = None
        self.bytes_moved = 0
        self.busy_time = 0.0
        sim.metrics.expose(name, self, {"bytes_moved": "B", "busy_time": "s"})
        self._read_bytes_per_s = spec.read_rate_mb_s * MB
        self._write_bytes_per_s = spec.write_rate_mb_s * MB

    def transfer_time(self, nbytes: int, direction: Direction) -> float:
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        bytes_per_s = (self._read_bytes_per_s if direction is Direction.READ
                       else self._write_bytes_per_s)
        return self.spec.per_transfer_overhead_s + nbytes / bytes_per_s

    def transfer(self, nbytes: int, direction: Direction):
        """Process: move ``nbytes`` across the port (queue + service)."""
        yield self._lock.acquire()
        try:
            faults = self.faults
            if faults is not None:
                # A stalled VME link holds the bus: the delay is
                # charged under the lock so queued transfers wait.
                delay = faults.stall_delay(self.name)
                if delay > 0.0:
                    yield self.sim.timeout(delay)
            duration = self.transfer_time(nbytes, direction)
            yield self.sim.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
        finally:
            self._lock.release()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise SimulationError("elapsed must be positive")
        return min(1.0, self.busy_time / elapsed)
