"""XBUS board memory: four interleaved DRAM banks behind the crossbar.

The board carries four 8 MB DRAM modules interleaved in sixteen-word
blocks, each matching the 40 MB/s port rate, for 160 MB/s aggregate
(Section 2.2, Figure 4).  Because the fine interleave spreads every
transfer across all banks, we model service time with a single
aggregate channel at the summed bank rate — which correctly caps total
board traffic at 160 MB/s — while still accounting per-bank byte
counts for utilization reports.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.specs import XBUS_SPEC, XbusSpec
from repro.sim import BandwidthChannel, Simulator


class XbusMemory:
    """Interleaved buffer memory on the XBUS board."""

    __slots__ = ("sim", "spec", "name", "channel", "bank_bytes_moved",
                 "_next_bank")

    def __init__(self, sim: Simulator, spec: XbusSpec = XBUS_SPEC,
                 name: str = "xmem"):
        self.sim = sim
        self.spec = spec
        self.name = name
        aggregate_rate = spec.bank_rate_mb_s * spec.memory_banks
        self.channel = BandwidthChannel(
            sim, rate_mb_s=aggregate_rate, name=f"{name}.banks")
        self.bank_bytes_moved = [0] * spec.memory_banks
        self._next_bank = 0

    @property
    def capacity_bytes(self) -> int:
        return self.spec.bank_bytes * self.spec.memory_banks

    # ------------------------------------------------------------------
    # timed access
    # ------------------------------------------------------------------
    def access(self, nbytes: int):
        """Process: one crossbar-side memory access of ``nbytes``."""
        if nbytes < 0:
            raise HardwareError(f"negative access size: {nbytes}")
        # Interleaving spreads the bytes across the banks; keep per-bank
        # counters for reporting.  Every bank takes the even share; the
        # remainder lands one byte per bank starting at the rotation
        # point — same totals as walking all banks, fewer modulo ops.
        banks = self.spec.memory_banks
        counters = self.bank_bytes_moved
        share, remainder = divmod(nbytes, banks)
        if share:
            for bank in range(banks):
                counters[bank] += share
        base = self._next_bank
        for index in range(remainder):
            counters[(base + index) % banks] += 1
        self._next_bank = (base + 1) % banks
        with self.sim.tracer.span("xmem.access", self.name, nbytes=nbytes):
            yield from self.channel.transfer(nbytes)
