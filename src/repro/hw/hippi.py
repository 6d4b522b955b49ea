"""HIPPI source/destination ports on the XBUS board.

Two unidirectional XBUS ports interface to the TMC HIPPI boards.
Measured loopback behaviour (Figure 6): 38.5 MB/s sustained in each
direction, with a fixed ~1.1 ms per-packet overhead "mostly due to
setting up the HIPPI and XBUS control registers across the slow VME
link" — which is why small transfers perform poorly.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.specs import HIPPI_SPEC, HippiSpec
from repro.sim import BandwidthChannel, Simulator


class HippiPort:
    """One unidirectional HIPPI port (source or destination)."""

    def __init__(self, sim: Simulator, spec: HippiSpec = HIPPI_SPEC,
                 name: str = "hippi"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.channel = BandwidthChannel(
            sim, rate_mb_s=spec.port_rate_mb_s, name=f"{name}.port")
        #: Optional fault-injection hook (see repro.faults.inject).
        self.faults = None
        self.packets_sent = 0
        sim.metrics.expose(name, self, {"packets_sent": ""})

    def send(self, nbytes: int, packets: int = 1):
        """Process: move ``nbytes`` through the port as ``packets`` packets.

        The per-packet setup overhead is charged once per packet; large
        streaming transfers use one packet per request, small
        interactive transfers pay the overhead every time.
        """
        if nbytes < 0:
            raise HardwareError(f"negative transfer size: {nbytes}")
        if packets < 1:
            raise HardwareError(f"packets must be >= 1, got {packets}")
        faults = self.faults
        if faults is not None:
            delay = faults.stall_delay(self.name)
            if delay > 0.0:
                yield self.sim.timeout(delay)
        setup = packets * self.spec.packet_overhead_s
        yield self.sim.timeout(setup)
        yield from self.channel.transfer(nbytes)
        self.packets_sent += packets
