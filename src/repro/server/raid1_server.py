"""The 1989 RAID-I prototype — the paper's baseline.

"RAID-I was constructed using a Sun 4/280 workstation with 128
megabytes of memory, four dual-string SCSI controllers, 28 5.25-inch
SCSI disks and specialized disk striping software" (Section 1).

Every byte a client reads crosses the host: disk -> SCSI string ->
controller -> VME backplane DMA into kernel memory -> programmed copy
into user space.  The DMA makes one pass over the memory system and
the copy makes two, so the ~7 MB/s memory system delivers at most
~2.3 MB/s to an application — the number that motivated RAID-II.
"""

from __future__ import annotations

from repro.host.workstation import Workstation
from repro.hw.cougar import CougarController
from repro.hw.disk import DiskDrive
from repro.hw.specs import SEAGATE_WREN_IV, SUN_4_280_RAID1, DiskSpec
from repro.raid import Raid0Controller
from repro.sim import Simulator
from repro.units import KIB, SECTOR_SIZE


class HostedDiskPath:
    """A disk reached through its controller and the host's memory DMA.

    All legs (drive media / SCSI string / controller / backplane /
    host-memory pass) run concurrently per operation — cut-through —
    so contention appears on whichever stage saturates first; for
    RAID-I that is the host memory system.
    """

    def __init__(self, host: Workstation, controller: CougarController,
                 disk: DiskDrive):
        self.host = host
        self.controller = controller
        self.disk = disk

    def read(self, lba: int, nsectors: int):
        nbytes = nsectors * SECTOR_SIZE
        values = yield self.disk.sim.fork([
            self.controller.read(self.disk, lba, nsectors),
            self.host.backplane.transfer(nbytes),
            self.host.memory.transfer(nbytes),
        ])
        return values[0]

    def write(self, lba: int, data: bytes):
        yield self.disk.sim.fork([
            self.host.memory.transfer(len(data)),
            self.host.backplane.transfer(len(data)),
            self.controller.write(self.disk, lba, data),
        ])
        return None


class Raid1Server:
    """The RAID-I prototype: striping software on a stock workstation."""

    def __init__(self, sim: Simulator, ndisks: int = 28,
                 disk_spec: DiskSpec = SEAGATE_WREN_IV,
                 stripe_unit_bytes: int = 64 * KIB, name: str = "raid1"):
        self.sim = sim
        self.name = name
        self.host = Workstation(sim, SUN_4_280_RAID1, name=f"{name}.host")
        # Four dual-string SCSI controllers; disks dealt round-robin
        # across the eight strings.
        self.controllers = [
            CougarController(sim, name=f"{name}.ctl{index}")
            for index in range(4)
        ]
        strings = [string for controller in self.controllers
                   for string in controller.strings]
        self.paths: list[HostedDiskPath] = []
        for index in range(ndisks):
            string = strings[index % len(strings)]
            disk = DiskDrive(sim, disk_spec, name=f"{name}.d{index}")
            string.attach(disk)
            controller = self.controllers[(index % len(strings)) // 2]
            self.paths.append(HostedDiskPath(self.host, controller, disk))
        self.raid = Raid0Controller(sim, self.paths, stripe_unit_bytes,
                                    name=f"{name}.stripe")

    def app_read(self, offset: int, nbytes: int):
        """Process: striped read delivered to a user-space application.

        The striping software gathers the data into kernel buffers
        (one memory pass each, inside the disk paths) and then copies
        it to the application (two more passes).
        """
        data = yield from self.raid.read(offset, nbytes)
        yield from self.host.copy(len(data))
        return data

    def single_disk_read(self, disk_index: int, lba: int, nsectors: int):
        """Process: one raw disk read delivered to an application."""
        path = self.paths[disk_index]
        data = yield from path.read(lba, nsectors)
        yield from self.host.copy(len(data))
        return data
