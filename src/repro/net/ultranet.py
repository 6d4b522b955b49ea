"""The Ultra Network Technologies ring network.

The Ultranet is the 100 MB/s ring that carries HIPPI traffic between
RAID-II's XBUS boards, client workstations and supercomputers
(Figure 1).  Bulk data movement is already modelled by the HIPPI
source/destination ports at each end, so this class contributes the
ring's own properties: a per-message latency for the socket-level
control traffic (open/read/write commands of the client library) and a
shared ring-bandwidth ceiling for the data that crosses it.
"""

from __future__ import annotations

from repro.sim import BandwidthChannel, Simulator
from repro.units import MS


class UltranetLink:
    """One client's connection onto the ring."""

    #: Ring latency for a small control message, one way.
    CONTROL_LATENCY_S = 0.5 * MS

    def __init__(self, sim: Simulator, rate_mb_s: float = 100.0,
                 name: str = "ultranet"):
        self.sim = sim
        self.name = name
        self.channel = BandwidthChannel(sim, rate_mb_s=rate_mb_s,
                                        name=f"{name}.ring")
        self.rpcs = 0
        sim.metrics.expose(name, self, {"rpcs": ""})

    def rpc(self):
        """Process: one control round trip (request + reply)."""
        yield self.sim.timeout(2 * self.CONTROL_LATENCY_S)
        self.rpcs += 1
        return None

    def data(self, nbytes: int):
        """Process: bulk bytes crossing the ring fabric."""
        yield from self.channel.transfer(nbytes)
        return None
