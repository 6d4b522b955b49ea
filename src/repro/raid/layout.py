"""Striping address math for RAID Levels 0, 1, 3 and 5.

A layout maps a *logical* byte address space onto (disk, LBA) extents.
The logical space is divided into stripe units; a *row* is one unit
across every disk.  For parity layouts one unit per row holds parity.

RAID 5 uses the left-symmetric arrangement: the parity unit of row
``r`` lives on disk ``N - 1 - (r mod N)`` and the row's data units
follow round-robin from the disk after the parity disk.  Consecutive
logical units therefore land on consecutive (mod N) disks, which gives
sequential requests maximum parallelism.
"""

from __future__ import annotations

from repro.errors import RaidError
from repro.units import SECTOR_SIZE


class Piece:
    """One contiguous slice of a request on one disk.

    ``logical_offset`` is where the piece starts in the logical address
    space; ``unit_offset`` is its byte offset within its stripe unit.
    Read-only by convention: a slotted class rather than a frozen
    dataclass, since every request builds one per unit it touches.
    """

    __slots__ = ("logical_offset", "nbytes", "nsectors", "disk", "lba",
                 "row", "unit_offset")

    def __init__(self, logical_offset: int, nbytes: int, disk: int,
                 lba: int, row: int, unit_offset: int):
        self.logical_offset = logical_offset
        self.nbytes = nbytes
        self.nsectors = nbytes // SECTOR_SIZE
        self.disk = disk
        self.lba = lba
        self.row = row
        self.unit_offset = unit_offset


class _StripedLayout:
    """Shared unit/row arithmetic for the unit-striped layouts."""

    def __init__(self, num_disks: int, stripe_unit_bytes: int,
                 disk_capacity_bytes: int, data_units_per_row: int):
        if num_disks < 1:
            raise RaidError(f"need at least one disk, got {num_disks}")
        if stripe_unit_bytes % SECTOR_SIZE != 0 or stripe_unit_bytes <= 0:
            raise RaidError(
                f"stripe unit must be a positive multiple of {SECTOR_SIZE}, "
                f"got {stripe_unit_bytes}")
        if data_units_per_row < 1:
            raise RaidError("layout must have at least one data unit per row")
        self.num_disks = num_disks
        self.stripe_unit_bytes = stripe_unit_bytes
        self.data_units_per_row = data_units_per_row
        self.unit_sectors = stripe_unit_bytes // SECTOR_SIZE
        self.rows = disk_capacity_bytes // stripe_unit_bytes

    @property
    def capacity_bytes(self) -> int:
        """Usable logical capacity."""
        return self.rows * self.data_units_per_row * self.stripe_unit_bytes

    def row_lba(self, row: int) -> int:
        return row * self.unit_sectors

    def data_disk(self, row: int, k: int) -> int:
        """Disk holding the ``k``-th data unit of ``row``."""
        raise NotImplementedError

    def parity_disk(self, row: int) -> int | None:
        """Disk holding ``row``'s parity unit, or None for no parity."""
        return None

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes <= 0:
            raise RaidError(f"bad range: offset={offset} nbytes={nbytes}")
        if offset % SECTOR_SIZE or nbytes % SECTOR_SIZE:
            raise RaidError(
                f"range must be {SECTOR_SIZE}-byte aligned: "
                f"offset={offset} nbytes={nbytes}")
        if offset + nbytes > self.capacity_bytes:
            raise RaidError(
                f"range [{offset}, {offset + nbytes}) exceeds capacity "
                f"{self.capacity_bytes}")

    def map_data(self, offset: int, nbytes: int) -> list[Piece]:
        """Split a logical range into per-disk pieces (unit granularity)."""
        self.check_range(offset, nbytes)
        unit = self.stripe_unit_bytes
        per_row = self.data_units_per_row
        unit_sectors = self.unit_sectors
        data_disk = self.data_disk
        pieces: list[Piece] = []
        position = offset
        end = offset + nbytes
        while position < end:
            unit_index = position // unit
            unit_offset = position % unit
            take = unit - unit_offset
            if take > end - position:
                take = end - position
            row = unit_index // per_row
            k = unit_index % per_row
            pieces.append(Piece(
                position, take, data_disk(row, k),
                row * unit_sectors + unit_offset // SECTOR_SIZE, row,
                unit_offset))
            position += take
        return pieces


class Raid0Layout(_StripedLayout):
    """Plain striping: no redundancy, all disks hold data."""

    def __init__(self, num_disks: int, stripe_unit_bytes: int,
                 disk_capacity_bytes: int):
        super().__init__(num_disks, stripe_unit_bytes, disk_capacity_bytes,
                         data_units_per_row=num_disks)

    def data_disk(self, row: int, k: int) -> int:
        return k


class Raid5Layout(_StripedLayout):
    """Left-symmetric rotated parity over one parity group."""

    def __init__(self, num_disks: int, stripe_unit_bytes: int,
                 disk_capacity_bytes: int):
        if num_disks < 3:
            raise RaidError(f"RAID 5 needs >= 3 disks, got {num_disks}")
        super().__init__(num_disks, stripe_unit_bytes, disk_capacity_bytes,
                         data_units_per_row=num_disks - 1)

    def parity_disk(self, row: int) -> int:
        return self.num_disks - 1 - (row % self.num_disks)

    def data_disk(self, row: int, k: int) -> int:
        # (parity_disk(row) + 1 + k) mod N, with the parity disk
        # N - 1 - (row mod N) folded in.
        return (k - row) % self.num_disks


class Raid1Layout(_StripedLayout):
    """Mirrored striping: disks form primary/mirror halves.

    Data is striped RAID-0 style over the first half; disk ``i`` is
    mirrored by disk ``i + num_disks/2``.
    """

    def __init__(self, num_disks: int, stripe_unit_bytes: int,
                 disk_capacity_bytes: int):
        if num_disks < 2 or num_disks % 2 != 0:
            raise RaidError(
                f"RAID 1 needs an even number of disks >= 2, got {num_disks}")
        super().__init__(num_disks, stripe_unit_bytes, disk_capacity_bytes,
                         data_units_per_row=num_disks // 2)

    def data_disk(self, row: int, k: int) -> int:
        return k

    def mirror_of(self, disk: int) -> int:
        half = self.num_disks // 2
        return disk + half if disk < half else disk - half


class Raid3Layout(_StripedLayout):
    """Byte/bit-interleaved striping with a dedicated parity disk.

    Modelled at sector granularity: logical sector ``s`` lives on data
    disk ``s mod (N-1)``; disk ``N-1`` holds parity for every row.
    Every access engages all data disks, and the controller serializes
    whole operations, reproducing Level 3's one-I/O-at-a-time
    behaviour (Section 4.2).
    """

    def __init__(self, num_disks: int, disk_capacity_bytes: int):
        if num_disks < 3:
            raise RaidError(f"RAID 3 needs >= 3 disks, got {num_disks}")
        super().__init__(num_disks, SECTOR_SIZE, disk_capacity_bytes,
                         data_units_per_row=num_disks - 1)

    def parity_disk(self, row: int) -> int:
        return self.num_disks - 1

    def data_disk(self, row: int, k: int) -> int:
        return k
