"""Unit tests for RAID striping layouts."""

import pytest

from repro.errors import RaidError
from repro.raid import Raid0Layout, Raid1Layout, Raid3Layout, Raid5Layout
from repro.units import KIB, MIB, SECTOR_SIZE

UNIT = 64 * KIB
DISK = 8 * MIB


# ---------------------------------------------------------------------------
# RAID 0
# ---------------------------------------------------------------------------

def test_raid0_capacity_uses_all_disks():
    layout = Raid0Layout(4, UNIT, DISK)
    assert layout.capacity_bytes == 4 * (DISK // UNIT) * UNIT


def test_raid0_consecutive_units_rotate_disks():
    layout = Raid0Layout(4, UNIT, DISK)
    pieces = layout.map_data(0, 4 * UNIT)
    assert [piece.disk for piece in pieces] == [0, 1, 2, 3]
    assert all(piece.lba == layout.row_lba(piece.row) for piece in pieces)


def test_raid0_second_row_advances_lba():
    layout = Raid0Layout(4, UNIT, DISK)
    pieces = layout.map_data(4 * UNIT, UNIT)
    assert pieces[0].disk == 0
    assert pieces[0].row == 1
    assert pieces[0].lba == UNIT // SECTOR_SIZE


def test_map_data_sub_unit_piece():
    layout = Raid0Layout(4, UNIT, DISK)
    pieces = layout.map_data(UNIT + 2 * SECTOR_SIZE, 3 * SECTOR_SIZE)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.disk == 1
    assert piece.unit_offset == 2 * SECTOR_SIZE
    assert piece.lba == 2
    assert piece.nsectors == 3


def test_map_data_spanning_units_splits():
    layout = Raid0Layout(4, UNIT, DISK)
    pieces = layout.map_data(UNIT - SECTOR_SIZE, 2 * SECTOR_SIZE)
    assert len(pieces) == 2
    assert pieces[0].disk == 0
    assert pieces[1].disk == 1
    assert pieces[0].nbytes == SECTOR_SIZE
    assert pieces[1].nbytes == SECTOR_SIZE


def test_map_data_preserves_order_and_coverage():
    layout = Raid0Layout(3, UNIT, DISK)
    offset, nbytes = 5 * SECTOR_SIZE, 7 * UNIT
    pieces = layout.map_data(offset, nbytes)
    assert pieces[0].logical_offset == offset
    position = offset
    for piece in pieces:
        assert piece.logical_offset == position
        position += piece.nbytes
    assert position == offset + nbytes


def test_check_range_rejects_misaligned():
    layout = Raid0Layout(4, UNIT, DISK)
    with pytest.raises(RaidError):
        layout.map_data(1, SECTOR_SIZE)
    with pytest.raises(RaidError):
        layout.map_data(0, 100)
    with pytest.raises(RaidError):
        layout.map_data(0, 0)
    with pytest.raises(RaidError):
        layout.map_data(layout.capacity_bytes, SECTOR_SIZE)


# ---------------------------------------------------------------------------
# RAID 5
# ---------------------------------------------------------------------------

def test_raid5_capacity_excludes_parity():
    layout = Raid5Layout(5, UNIT, DISK)
    assert layout.capacity_bytes == 4 * (DISK // UNIT) * UNIT


def test_raid5_parity_rotates_left_symmetric():
    layout = Raid5Layout(5, UNIT, DISK)
    assert [layout.parity_disk(row) for row in range(6)] == [4, 3, 2, 1, 0, 4]


def test_raid5_data_never_on_parity_disk():
    for ndisks in (3, 5, 24):
        layout = Raid5Layout(ndisks, UNIT, DISK)
        for row in range(2 * ndisks):
            parity = layout.parity_disk(row)
            data_disks = [layout.data_disk(row, k)
                          for k in range(ndisks - 1)]
            # Left-symmetric: data follows the parity disk round-robin.
            assert data_disks == [(parity + 1 + k) % ndisks
                                  for k in range(ndisks - 1)]
            assert parity not in data_disks
            assert sorted(data_disks + [parity]) == list(range(ndisks))


def test_raid5_left_symmetric_sequential_spreads_over_all_disks():
    """Consecutive logical units visit consecutive disks modulo N."""
    layout = Raid5Layout(5, UNIT, DISK)
    pieces = layout.map_data(0, 8 * UNIT)
    disks = [piece.disk for piece in pieces]
    # Row 0: parity on disk 4, data on 0,1,2,3; row 1: parity on 3,
    # data continues 4,0,1,2 (left-symmetric).
    assert disks == [0, 1, 2, 3, 4, 0, 1, 2]


def test_raid5_minimum_disks():
    with pytest.raises(RaidError):
        Raid5Layout(2, UNIT, DISK)


def test_raid5_logical_offset_of_unit_inverts_mapping():
    layout = Raid5Layout(5, UNIT, DISK)
    for row in (0, 1, 7):
        for k in range(4):
            offset = (row * layout.data_units_per_row + k) * UNIT
            piece = layout.map_data(offset, UNIT)[0]
            assert piece.row == row
            assert piece.disk == layout.data_disk(row, k)


# ---------------------------------------------------------------------------
# RAID 1
# ---------------------------------------------------------------------------

def test_raid1_capacity_is_half():
    layout = Raid1Layout(6, UNIT, DISK)
    assert layout.capacity_bytes == 3 * (DISK // UNIT) * UNIT


def test_raid1_mirror_pairs():
    layout = Raid1Layout(6, UNIT, DISK)
    assert layout.mirror_of(0) == 3
    assert layout.mirror_of(3) == 0
    assert layout.mirror_of(2) == 5


def test_raid1_requires_even_disks():
    with pytest.raises(RaidError):
        Raid1Layout(3, UNIT, DISK)


# ---------------------------------------------------------------------------
# RAID 3
# ---------------------------------------------------------------------------

def test_raid3_sector_interleave():
    layout = Raid3Layout(5, DISK)
    assert layout.stripe_unit_bytes == SECTOR_SIZE
    pieces = layout.map_data(0, 8 * SECTOR_SIZE)
    assert [piece.disk for piece in pieces] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_raid3_fixed_parity_disk():
    layout = Raid3Layout(5, DISK)
    assert all(layout.parity_disk(row) == 4 for row in range(10))


def test_bad_stripe_unit_rejected():
    with pytest.raises(RaidError):
        Raid0Layout(4, 1000, DISK)  # not sector aligned
    with pytest.raises(RaidError):
        Raid0Layout(0, UNIT, DISK)
