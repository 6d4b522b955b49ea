"""Server configurations, including presets for each paper experiment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hw.specs import IBM_0661, LFS_SPEC, DiskSpec, LfsSpec
from repro.hw.xbus_board import XbusConfig
from repro.units import KIB


@dataclass(frozen=True)
class Raid2Config:
    """Shape of one RAID-II server instance."""

    boards: int = 1
    xbus: XbusConfig = field(default_factory=XbusConfig)
    #: Use only the first N disk paths of each board (None = all).
    disks_used: Optional[int] = None
    stripe_unit_bytes: int = 64 * KIB
    lfs: LfsSpec = LFS_SPEC
    max_inodes: int = 1024

    # ------------------------------------------------------------------
    # presets matching the paper's experimental setups
    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls, disk_spec: DiskSpec = IBM_0661) -> "Raid2Config":
        """Figure 5's setup: one XBUS board, 4 Cougars, 24 disks, RAID 5."""
        return cls(xbus=XbusConfig(disk_spec=disk_spec))

    @classmethod
    def table1_sequential(cls) -> "Raid2Config":
        """Table 1's setup: a fifth Cougar on the control port (30 disks)."""
        return cls(xbus=XbusConfig(control_cougar=True))

    @classmethod
    def table2_small_io(cls, ndisks: int = 15) -> "Raid2Config":
        """Table 2's setup: ``ndisks`` active disks, one process each."""
        return cls(disks_used=ndisks)

    @classmethod
    def fig8_lfs(cls) -> "Raid2Config":
        """Figure 8's setup: a single XBUS board with 16 disks.

        Sixteen disks = four Cougars with two disks per string, which
        keeps the string-major interleaved order the dip mechanism
        relies on.
        """
        return cls(xbus=XbusConfig(disks_per_string=2))
