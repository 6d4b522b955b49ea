"""SCSI string model.

A *string* is one SCSI bus hanging off a Cougar controller.  The paper
attaches three disks per string and measures the string's ceiling at
about 3 MB/s (Figure 7) — well below the sum of three disks' media
rates, which is exactly the bottleneck Figure 7 demonstrates.

Drives disconnect from the bus during seeks and reconnect to transfer,
so only the data transfer occupies the string.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.disk import DiskDrive
from repro.hw.specs import SCSI_STRING_SPEC, ScsiStringSpec
from repro.sim import BandwidthChannel, Simulator


class ScsiString:
    """One SCSI bus with its attached drives."""

    def __init__(self, sim: Simulator, spec: ScsiStringSpec = SCSI_STRING_SPEC,
                 name: str = "string"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.channel = BandwidthChannel(
            sim, rate_mb_s=spec.rate_mb_s,
            per_transfer_overhead=spec.per_transfer_overhead_s,
            name=f"{name}.bus")
        self.channel.span = "scsi.transfer"
        self.disks: list[DiskDrive] = []
        #: Optional fault-injection hook (see repro.faults.inject).
        self.faults = None

    def attach(self, disk: DiskDrive) -> None:
        if disk in self.disks:
            raise HardwareError(f"{disk.name} already attached to {self.name}")
        self.disks.append(disk)

    def transfer(self, nbytes: int):
        """Process: wait out any stall on this string, then move
        ``nbytes`` across it (queue + service).

        Only a string with a fault hook needs this; otherwise a leg is
        the bus channel's own transfer.  Writes run at the string's
        (lower) write rate on the same bus: the caller charges them
        the byte count that takes as long at the read rate, so the
        shared FIFO channel still serializes both directions.
        """
        faults = self.faults
        if faults is not None:
            delay = faults.stall_delay(self.name)
            if delay > 0.0:
                yield self.sim.timeout(delay)
        yield from self.channel.transfer(nbytes)
