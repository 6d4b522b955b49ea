"""XBUS board memory: four interleaved DRAM banks behind the crossbar.

The board carries four 8 MB DRAM modules interleaved in sixteen-word
blocks, each matching the 40 MB/s port rate, for 160 MB/s aggregate
(Section 2.2, Figure 4).  Because the fine interleave spreads every
transfer across all banks, we model service time with a single
aggregate channel at the summed bank rate, which correctly caps total
board traffic at 160 MB/s.
"""

from __future__ import annotations

from repro.hw.specs import XBUS_SPEC, XbusSpec
from repro.sim import BandwidthChannel, Simulator


class XbusMemory:
    """Interleaved buffer memory on the XBUS board."""

    __slots__ = ("sim", "spec", "name", "channel")

    def __init__(self, sim: Simulator, spec: XbusSpec = XBUS_SPEC,
                 name: str = "xmem"):
        self.sim = sim
        self.spec = spec
        self.name = name
        aggregate_rate = spec.bank_rate_mb_s * spec.memory_banks
        self.channel = BandwidthChannel(
            sim, rate_mb_s=aggregate_rate, name=f"{name}.banks")
        self.channel.span = "xmem.access"

    @property
    def capacity_bytes(self) -> int:
        return self.spec.bank_bytes * self.spec.memory_banks

    # ------------------------------------------------------------------
    # timed access
    # ------------------------------------------------------------------
    def access(self, nbytes: int):
        """Process: one crossbar-side memory access of ``nbytes``.

        This is the bank channel's own transfer, with no frame of its
        own, so a stage that forks it names the leg ``"access"``.
        """
        return self.channel.transfer(nbytes)
