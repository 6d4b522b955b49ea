"""RAID layer: striping layouts, controllers, parity and reconstruction.

The paper's array is "configured as a RAID Level 5 with one parity
group of 24 disks" (Section 2.3) using left-symmetric rotated parity.
RAID Levels 0, 1 and 3 are also implemented: Level 0 for raw striping
microbenchmarks, Level 1 for comparison, and Level 3 because Section 4
contrasts RAID-II's Level-5 flexibility ("can execute several small,
independent I/Os in parallel") against HPDS's bit-interleaved Level 3
("supports only one small I/O at a time").

All controllers move real bytes: parity on disk is genuine XOR and any
single-disk failure is recoverable byte-for-byte.
"""

from repro.raid.controller import (InstantParity, Raid0Controller,
                                   Raid1Controller, Raid3Controller,
                                   Raid5Controller)
from repro.raid.layout import (Piece, Raid0Layout, Raid1Layout, Raid3Layout,
                               Raid5Layout)
from repro.raid.paths import DirectDiskPath

__all__ = [
    "DirectDiskPath",
    "InstantParity",
    "Piece",
    "Raid0Controller",
    "Raid0Layout",
    "Raid1Controller",
    "Raid1Layout",
    "Raid3Controller",
    "Raid3Layout",
    "Raid5Controller",
    "Raid5Layout",
]
