"""The 10 Mb/s Ethernet attached to the host workstation.

RAID-II's "standard mode" serves small requests over this network
(Section 2.1.1).  The model charges line rate (1.25 MB/s) plus a
per-packet cost; the paper quotes "approximately 0.5 millisecond" to
transfer an Ethernet packet, which at line rate corresponds to a
~625-byte frame, so the fixed per-packet overhead below is the
protocol-processing share.
"""

from __future__ import annotations

import math

from repro.errors import HardwareError
from repro.hw.specs import ETHERNET_SPEC, EthernetSpec
from repro.sim import BandwidthChannel, Simulator


class Ethernet:
    """A shared 10 Mb/s Ethernet segment."""

    def __init__(self, sim: Simulator, spec: EthernetSpec = ETHERNET_SPEC,
                 name: str = "ether"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.channel = BandwidthChannel(
            sim, rate_mb_s=spec.rate_mb_s, name=f"{name}.wire")
        self.packets_sent = 0
        sim.metrics.expose(name, self, {"packets_sent": ""})

    def packets_for(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.spec.mtu_bytes))

    def send(self, nbytes: int):
        """Process: move ``nbytes`` as MTU-sized packets."""
        if nbytes < 0:
            raise HardwareError(f"negative transfer size: {nbytes}")
        packets = self.packets_for(nbytes)
        yield self.sim.timeout(packets * self.spec.packet_overhead_s)
        yield from self.channel.transfer(nbytes)
        self.packets_sent += packets
