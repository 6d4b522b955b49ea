"""Bandwidth-limited channels.

A :class:`BandwidthChannel` models a bus, link or port that moves bytes
at a fixed rate and serves transfers one at a time (FIFO).  Because the
hardware models issue transfers in block-sized units (sectors, stripe
units, network packets), interleaving and fairness between competing
streams emerge naturally at block granularity, which matches how the
real buses behaved.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.resources import Resource
from repro.units import MB


class BandwidthChannel:
    """A serialized transfer channel with a fixed byte rate.

    Parameters
    ----------
    rate_mb_s:
        Sustained transfer rate in megabytes/second.
    per_transfer_overhead:
        Fixed time in seconds charged to every transfer before data
        moves (bus arbitration, command decode, packet setup...).
    """

    __slots__ = ("sim", "rate_mb_s", "per_transfer_overhead", "name",
                 "_lock", "_rate_bytes", "bytes_moved", "busy_time",
                 "span", "__weakref__")

    def __init__(self, sim: Simulator, rate_mb_s: float,
                 per_transfer_overhead: float = 0.0, name: str = "channel"):
        if rate_mb_s <= 0:
            raise SimulationError(f"rate must be positive, got {rate_mb_s!r}")
        if per_transfer_overhead < 0:
            raise SimulationError("overhead must be non-negative")
        self.sim = sim
        self.rate_mb_s = rate_mb_s
        self._rate_bytes = rate_mb_s * MB
        self.per_transfer_overhead = per_transfer_overhead
        self.name = name
        self._lock = Resource(sim, capacity=1, name=f"{name}.lock")
        self.bytes_moved = 0
        self.busy_time = 0.0
        #: Name of the span a traced transfer records (see
        #: repro.obs.spans), set by owners whose transfers are a
        #: data-path leg of their own; ``None`` records none.
        self.span: Optional[str] = None
        sim.metrics.expose(name, self, {"bytes_moved": "B", "busy_time": "s"})

    def transfer_time(self, nbytes: int) -> float:
        """Service time for a transfer of ``nbytes`` (excluding queueing)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        return self.per_transfer_overhead + nbytes / self._rate_bytes

    def transfer(self, nbytes: int):
        """Process: move ``nbytes`` across the channel (queue + service)."""
        yield self._lock.acquire()
        try:
            # Inlined transfer_time: this generator runs once per block
            # moved anywhere in the simulation.
            if nbytes < 0:
                raise SimulationError(f"negative transfer size: {nbytes}")
            duration = self.per_transfer_overhead + nbytes / self._rate_bytes
            yield self.sim.timeout(duration)
            self.bytes_moved += nbytes
            self.busy_time += duration
        finally:
            self._lock.release()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the channel was moving data."""
        if elapsed <= 0:
            raise SimulationError("elapsed must be positive")
        return min(1.0, self.busy_time / elapsed)
