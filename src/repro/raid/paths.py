"""Disk-path adapters for the RAID layer.

A RAID controller is written against a minimal *disk path* protocol —
an object with ``read(lba, nsectors)`` / ``write(lba, data)``
simulation processes and a ``disk`` attribute.  The XBUS board
provides :class:`repro.hw.xbus_board.XbusDiskPath` (the full
disk->string->Cougar->VME->memory route); this module provides
:class:`DirectDiskPath`, which talks to a bare drive — used by RAID
unit tests and by hosts whose disks hang directly off the backplane
(the RAID-I prototype).
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from repro.hw.disk import DiskDrive
from repro.units import SECTOR_SIZE


class DiskPath(Protocol):
    """What the RAID controller needs from a disk route."""

    disk: DiskDrive

    def read(self, lba: int, nsectors: int) -> Any:
        """Simulation process returning the bytes read."""

    def write(self, lba: int, data: bytes) -> Any:
        """Simulation process writing ``data`` at ``lba``."""


class DirectDiskPath:
    """A path straight to the drive, optionally through shared channels.

    ``extra_channels`` (e.g. a host backplane) are crossed concurrently
    with the disk transfer, modelling DMA cut-through.
    """

    def __init__(self, disk: DiskDrive, extra_channels: Optional[list] = None):
        self.disk = disk
        self.extra_channels = list(extra_channels or [])

    @property
    def name(self) -> str:
        return self.disk.name

    def read(self, lba: int, nsectors: int):
        nbytes = nsectors * SECTOR_SIZE
        legs = [self.disk.read(lba, nsectors)]
        for channel in self.extra_channels:
            legs.append(channel.transfer(nbytes))
        values = yield self.disk.sim.fork(legs)
        return values[0]

    def write(self, lba: int, data: bytes):
        legs = [self.disk.write(lba, data)]
        for channel in self.extra_channels:
            legs.append(channel.transfer(len(data)))
        yield self.disk.sim.fork(legs)
        return None
