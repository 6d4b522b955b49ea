"""Property-based tests (hypothesis) for RAID invariants.

Invariants checked over arbitrary operation sequences:

* the layout mapping is a bijection (no two logical sectors share a
  physical sector; coverage is exact),
* read-back equals the last write at every byte,
* parity stays consistent after any write sequence,
* the array survives the loss of any single disk byte-for-byte.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.hw import IBM_0661, DiskDrive
from repro.raid import (DirectDiskPath, Raid0Layout, Raid1Layout, Raid5Layout,
                        Raid5Controller)
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, SECTOR_SIZE

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=512 * KIB)
UNIT = 8 * KIB

layouts = st.sampled_from([
    Raid0Layout(4, UNIT, 512 * KIB),
    Raid0Layout(7, UNIT, 512 * KIB),
    Raid5Layout(3, UNIT, 512 * KIB),
    Raid5Layout(5, UNIT, 512 * KIB),
    Raid5Layout(24, UNIT, 512 * KIB),
    Raid1Layout(6, UNIT, 512 * KIB),
])


@st.composite
def aligned_range(draw, layout):
    total_sectors = layout.capacity_bytes // SECTOR_SIZE
    start = draw(st.integers(min_value=0, max_value=total_sectors - 1))
    length = draw(st.integers(min_value=1,
                              max_value=min(64, total_sectors - start)))
    return start * SECTOR_SIZE, length * SECTOR_SIZE


@given(data=st.data(), layout=layouts)
@settings(max_examples=60, deadline=None)
def test_layout_mapping_is_exact_and_injective(data, layout):
    offset, nbytes = data.draw(aligned_range(layout))
    pieces = layout.map_data(offset, nbytes)
    # Exact coverage in order.
    position = offset
    for piece in pieces:
        assert piece.logical_offset == position
        position += piece.nbytes
    assert position == offset + nbytes
    # Injective: no physical sector claimed twice.
    seen = set()
    for piece in pieces:
        for sector in range(piece.lba, piece.lba + piece.nsectors):
            key = (piece.disk, sector)
            assert key not in seen
            seen.add(key)
    # Data never lands on the row's parity disk.
    for piece in pieces:
        parity = layout.parity_disk(piece.row)
        if parity is not None:
            assert piece.disk != parity


@given(data=st.data(), layout=layouts)
@settings(max_examples=40, deadline=None)
def test_distinct_logical_sectors_map_to_distinct_physical(data, layout):
    total_sectors = layout.capacity_bytes // SECTOR_SIZE
    a = data.draw(st.integers(min_value=0, max_value=total_sectors - 1))
    b = data.draw(st.integers(min_value=0, max_value=total_sectors - 1))
    if a == b:
        return
    pa = layout.map_data(a * SECTOR_SIZE, SECTOR_SIZE)[0]
    pb = layout.map_data(b * SECTOR_SIZE, SECTOR_SIZE)[0]
    assert (pa.disk, pa.lba) != (pb.disk, pb.lba)


def _make_raid5(ndisks=5):
    sim = Simulator()
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    return sim, paths, Raid5Controller(sim, paths, UNIT)


write_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),   # start sector
        st.integers(min_value=1, max_value=40),    # sector count
        st.integers(min_value=0, max_value=255),   # fill byte
    ),
    min_size=1, max_size=8,
)


@given(ops=write_ops)
@settings(max_examples=40, deadline=None)
def test_raid5_readback_matches_shadow(ops):
    sim, _paths, ctrl = _make_raid5()
    shadow = bytearray(ctrl.capacity_bytes)

    def body():
        for start, count, fill in ops:
            start_sector = start % (ctrl.capacity_bytes // SECTOR_SIZE - 45)
            offset = start_sector * SECTOR_SIZE
            nbytes = count * SECTOR_SIZE
            payload = bytes([fill]) * nbytes
            shadow[offset:offset + nbytes] = payload
            yield from ctrl.write(offset, payload)
        checks = []
        for start, count, _fill in ops:
            start_sector = start % (ctrl.capacity_bytes // SECTOR_SIZE - 45)
            offset = start_sector * SECTOR_SIZE
            nbytes = count * SECTOR_SIZE
            data = yield from ctrl.read(offset, nbytes)
            checks.append((offset, nbytes, data))
        return checks

    for offset, nbytes, got in sim.run_process(body()):
        assert got == bytes(shadow[offset:offset + nbytes])


@given(ops=write_ops)
@settings(max_examples=30, deadline=None)
def test_raid5_parity_invariant_after_any_write_sequence(ops):
    sim, _paths, ctrl = _make_raid5()

    def body():
        for start, count, fill in ops:
            start_sector = start % (ctrl.capacity_bytes // SECTOR_SIZE - 45)
            yield from ctrl.write(start_sector * SECTOR_SIZE,
                                  bytes([fill]) * (count * SECTOR_SIZE))

    sim.run_process(body())
    assert assert_parity_clean(ctrl).rows_checked == ctrl.layout.rows


@given(ops=write_ops, victim=st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_raid5_single_disk_loss_is_always_recoverable(ops, victim):
    sim, paths, ctrl = _make_raid5()
    shadow = bytearray(ctrl.capacity_bytes)

    def body():
        for start, count, fill in ops:
            start_sector = start % (ctrl.capacity_bytes // SECTOR_SIZE - 45)
            offset = start_sector * SECTOR_SIZE
            nbytes = count * SECTOR_SIZE
            payload = bytes([fill]) * nbytes
            shadow[offset:offset + nbytes] = payload
            yield from ctrl.write(offset, payload)
        paths[victim].disk.fail()
        data = yield from ctrl.read(0, ctrl.capacity_bytes)
        return data

    data = sim.run_process(body())
    assert data == bytes(shadow)


@given(ops=write_ops, victim=st.integers(min_value=0, max_value=4))
@settings(max_examples=15, deadline=None)
def test_raid5_rebuild_restores_exact_image(ops, victim):
    sim, paths, ctrl = _make_raid5()

    def body():
        for start, count, fill in ops:
            start_sector = start % (ctrl.capacity_bytes // SECTOR_SIZE - 45)
            yield from ctrl.write(start_sector * SECTOR_SIZE,
                                  bytes([fill]) * (count * SECTOR_SIZE))
        image_before = paths[victim].disk.peek(
            0, paths[victim].disk.num_sectors)
        paths[victim].disk.fail()
        paths[victim].disk.repair()
        yield from ctrl.rebuild(victim)
        image_after = paths[victim].disk.peek(
            0, paths[victim].disk.num_sectors)
        return image_before, image_after

    before, after = sim.run_process(body())
    assert before == after
    assert assert_parity_clean(ctrl).rows_checked == ctrl.layout.rows
