"""Workstation model: CPU, memory system and VME backplane.

The paper's central observation is that a workstation's memory system
is the wrong place to route file-server data: "The copy operations
that move data between kernel DMA buffers and buffers in user space
saturate the memory system when I/O bandwidth reaches 2.3
megabytes/second" and the Sun 4/280 backplane saturates at 9 MB/s
(Section 1).  This model makes those limits explicit:

* the **CPU** is a single server charged a fixed cost per I/O
  (system call, context switches, completion interrupt),
* the **memory system** is a bandwidth channel; a programmed copy
  crosses it twice (read + write), a DMA transfer once,
* the **backplane** is a bandwidth channel crossed by all DMA.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.specs import WorkstationSpec
from repro.sim import BandwidthChannel, Resource, Simulator


class Workstation:
    """A host or client workstation."""

    def __init__(self, sim: Simulator, spec: WorkstationSpec,
                 name: str = "host"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.cpu = Resource(sim, capacity=1, name=f"{name}.cpu")
        self.memory = BandwidthChannel(
            sim, rate_mb_s=spec.memory_copy_rate_mb_s, name=f"{name}.mem")
        self.backplane = BandwidthChannel(
            sim, rate_mb_s=spec.backplane_rate_mb_s, name=f"{name}.vme")
        self.cpu_busy_time = 0.0
        self.ios_handled = 0
        sim.metrics.expose(name, self, {"cpu_busy_time": "s",
                                        "ios_handled": ""})

    # ------------------------------------------------------------------
    def cpu_work(self, seconds: float):
        """Process: hold the CPU for ``seconds`` of work."""
        if seconds < 0:
            raise HardwareError(f"negative CPU time: {seconds!r}")
        yield self.cpu.acquire()
        try:
            yield self.sim.timeout(seconds)
            self.cpu_busy_time += seconds
        finally:
            self.cpu.release()

    def handle_io(self):
        """Process: CPU cost of fielding one I/O request/completion."""
        yield from self.cpu_work(self.spec.per_io_cpu_s)
        self.ios_handled += 1

    # ------------------------------------------------------------------
    def copy(self, nbytes: int):
        """Process: a programmed memory copy (two passes over memory)."""
        yield from self.memory.transfer(2 * nbytes)

    def dma_in(self, nbytes: int):
        """Process: device -> host memory over the backplane (one pass)."""
        yield from self._dma(nbytes)

    def dma_out(self, nbytes: int):
        """Process: host memory -> device over the backplane (one pass)."""
        yield from self._dma(nbytes)

    def _dma(self, nbytes: int):
        yield self.sim.fork([self.backplane.transfer(nbytes),
                             self.memory.transfer(nbytes)])

    def cpu_utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise HardwareError("elapsed must be positive")
        return min(1.0, self.cpu_busy_time / elapsed)
