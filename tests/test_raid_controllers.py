"""Unit tests for the RAID controllers (timing + byte-level correctness)."""

import dataclasses
import random

import pytest

from repro.errors import RaidError, UnrecoverableArrayError
from repro.hw import IBM_0661, DiskDrive
from repro.raid import (DirectDiskPath, Raid0Controller, Raid1Controller,
                        Raid3Controller, Raid5Controller)
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, MIB, SECTOR_SIZE

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
UNIT = 16 * KIB


def make_array(sim, ndisks):
    return [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
            for i in range(ndisks)]


def pattern(nbytes: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    return rng.randbytes(nbytes)


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# RAID 0
# ---------------------------------------------------------------------------

def test_raid0_roundtrip(sim):
    ctrl = Raid0Controller(sim, make_array(sim, 4), UNIT)
    payload = pattern(5 * UNIT + 3 * SECTOR_SIZE)

    def body():
        yield from ctrl.write(2 * SECTOR_SIZE, payload)
        data = yield from ctrl.read(2 * SECTOR_SIZE, len(payload))
        return data

    assert sim.run_process(body()) == payload


def test_raid0_failure_is_fatal(sim):
    paths = make_array(sim, 4)
    ctrl = Raid0Controller(sim, paths, UNIT)
    paths[1].disk.fail()

    def body():
        yield from ctrl.read(0, 4 * UNIT)

    with pytest.raises(UnrecoverableArrayError):
        sim.run_process(body())


def test_raid0_spreads_io_across_disks(sim):
    paths = make_array(sim, 4)
    ctrl = Raid0Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(8 * UNIT))

    sim.run_process(body())
    assert all(path.disk.writes == 2 for path in paths)


# ---------------------------------------------------------------------------
# RAID 1
# ---------------------------------------------------------------------------

def test_raid1_roundtrip(sim):
    ctrl = Raid1Controller(sim, make_array(sim, 4), UNIT)
    payload = pattern(3 * UNIT)

    def body():
        yield from ctrl.write(0, payload)
        data = yield from ctrl.read(0, len(payload))
        return data

    assert sim.run_process(body()) == payload


def test_raid1_writes_both_copies(sim):
    paths = make_array(sim, 4)
    ctrl = Raid1Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(2 * UNIT))

    sim.run_process(body())
    assert [path.disk.writes for path in paths] == [1, 1, 1, 1]


def test_raid1_reads_alternate_between_copies(sim):
    paths = make_array(sim, 2)
    ctrl = Raid1Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(UNIT))
        for _ in range(6):
            yield from ctrl.read(0, UNIT)

    sim.run_process(body())
    assert paths[0].disk.reads == 3
    assert paths[1].disk.reads == 3


def test_raid1_survives_single_failure(sim):
    paths = make_array(sim, 2)
    ctrl = Raid1Controller(sim, paths, UNIT)
    payload = pattern(2 * UNIT)

    def body():
        yield from ctrl.write(0, payload)
        paths[0].disk.fail()
        data = yield from ctrl.read(0, len(payload))
        yield from ctrl.write(UNIT, pattern(UNIT, seed=9))
        follow_up = yield from ctrl.read(UNIT, UNIT)
        return data, follow_up

    data, follow_up = sim.run_process(body())
    assert data == payload
    assert follow_up == pattern(UNIT, seed=9)


def test_raid1_double_failure_fatal(sim):
    paths = make_array(sim, 2)
    ctrl = Raid1Controller(sim, paths, UNIT)
    paths[0].disk.fail()
    paths[1].disk.fail()

    def body():
        yield from ctrl.read(0, UNIT)

    with pytest.raises(UnrecoverableArrayError):
        sim.run_process(body())


def test_raid1_rebuild_restores_copy(sim):
    paths = make_array(sim, 2)
    ctrl = Raid1Controller(sim, paths, UNIT)
    payload = pattern(4 * UNIT)

    def body():
        yield from ctrl.write(0, payload)
        paths[0].disk.fail()
        paths[0].disk.repair()
        yield from ctrl.rebuild(0, max_rows=8)
        return paths[0].disk.peek(0, 4 * UNIT // SECTOR_SIZE)

    assert sim.run_process(body()) == payload


# ---------------------------------------------------------------------------
# RAID 5: correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ndisks", [3, 24])
def test_raid5_unit_index_in_row_matches_a_scan(ndisks):
    sim = Simulator()
    ctrl = Raid5Controller(sim, make_array(sim, ndisks), UNIT)
    layout = ctrl.layout
    for row in range(ndisks):  # every row mod N
        for disk in range(ndisks):
            scanned = [k for k in range(ndisks - 1)
                       if layout.data_disk(row, k) == disk]
            if disk == layout.parity_disk(row):
                assert scanned == []
                with pytest.raises(RaidError):
                    ctrl._unit_index_in_row(row, disk)
            else:
                assert [ctrl._unit_index_in_row(row, disk)] == scanned


def test_raid5_roundtrip_unaligned(sim):
    ctrl = Raid5Controller(sim, make_array(sim, 5), UNIT)
    payload = pattern(7 * UNIT + 5 * SECTOR_SIZE, seed=1)
    offset = 3 * SECTOR_SIZE

    def body():
        yield from ctrl.write(offset, payload)
        data = yield from ctrl.read(offset, len(payload))
        return data

    assert sim.run_process(body()) == payload
    assert assert_parity_clean(ctrl, max_rows=4).rows_checked == 4


def test_raid5_full_stripe_write_detected(sim):
    ctrl = Raid5Controller(sim, make_array(sim, 5), UNIT)
    row_bytes = 4 * UNIT

    def body():
        yield from ctrl.write(0, pattern(row_bytes))

    sim.run_process(body())
    assert ctrl.full_stripe_writes == 1
    assert ctrl.rmw_writes == 0
    assert ctrl.reconstruct_writes == 0
    assert assert_parity_clean(ctrl, max_rows=1).rows_checked == 1


def test_raid5_full_stripe_write_reads_nothing(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(4 * UNIT))

    sim.run_process(body())
    assert sum(path.disk.reads for path in paths) == 0
    assert sum(path.disk.writes for path in paths) == 5  # 4 data + parity


def test_raid5_small_write_costs_four_accesses(sim):
    """The classic small-write penalty: 2 reads + 2 writes."""
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(4 * KIB))

    sim.run_process(body())
    assert ctrl.rmw_writes == 1
    assert ctrl.reconstruct_writes == 0
    assert sum(path.disk.reads for path in paths) == 2
    assert sum(path.disk.writes for path in paths) == 2
    assert assert_parity_clean(ctrl, max_rows=1).rows_checked == 1


def test_raid5_large_partial_write_reads_only_untouched_units(sim):
    """A write covering more than half a row is a reconstruct-write:
    read the one untouched unit, write three data units + parity."""
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(3 * UNIT))

    sim.run_process(body())
    assert ctrl.reconstruct_writes == 1
    assert ctrl.rmw_writes == 0
    assert ctrl.full_stripe_writes == 0
    assert sum(path.disk.reads for path in paths) == 1
    assert sum(path.disk.writes for path in paths) == 4
    assert assert_parity_clean(ctrl, max_rows=1).rows_checked == 1


def test_raid5_overwrite_keeps_parity_consistent(sim):
    ctrl = Raid5Controller(sim, make_array(sim, 5), UNIT)

    def body():
        yield from ctrl.write(0, pattern(8 * UNIT, seed=1))
        yield from ctrl.write(2 * UNIT, pattern(3 * UNIT, seed=2))
        yield from ctrl.write(5 * SECTOR_SIZE, pattern(2 * SECTOR_SIZE, seed=3))
        data = yield from ctrl.read(0, 8 * UNIT)
        return data

    data = sim.run_process(body())
    expected = bytearray(pattern(8 * UNIT, seed=1))
    expected[2 * UNIT:5 * UNIT] = pattern(3 * UNIT, seed=2)
    expected[5 * SECTOR_SIZE:7 * SECTOR_SIZE] = pattern(2 * SECTOR_SIZE, seed=3)
    assert data == bytes(expected)
    assert assert_parity_clean(ctrl, max_rows=4).rows_checked == 4


def test_raid5_degraded_read_reconstructs(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)
    payload = pattern(8 * UNIT, seed=4)

    def body():
        yield from ctrl.write(0, payload)
        paths[2].disk.fail()
        data = yield from ctrl.read(0, len(payload))
        return data

    assert sim.run_process(body()) == payload
    assert ctrl.degraded_reads > 0


def test_raid5_degraded_write_then_read(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(8 * UNIT, seed=5))
        paths[1].disk.fail()
        yield from ctrl.write(UNIT, pattern(2 * UNIT, seed=6))
        data = yield from ctrl.read(0, 8 * UNIT)
        return data

    data = sim.run_process(body())
    expected = bytearray(pattern(8 * UNIT, seed=5))
    expected[UNIT:3 * UNIT] = pattern(2 * UNIT, seed=6)
    assert data == bytes(expected)


def test_raid5_degraded_full_stripe_write(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        paths[0].disk.fail()
        yield from ctrl.write(0, pattern(4 * UNIT, seed=7))
        data = yield from ctrl.read(0, 4 * UNIT)
        return data

    assert sim.run_process(body()) == pattern(4 * UNIT, seed=7)


def test_raid5_double_failure_fatal(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def body():
        yield from ctrl.write(0, pattern(4 * UNIT))
        paths[0].disk.fail()
        paths[1].disk.fail()
        yield from ctrl.read(0, 4 * UNIT)

    with pytest.raises(UnrecoverableArrayError):
        sim.run_process(body())


def test_raid5_rebuild_restores_failed_disk(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)
    payload = pattern(16 * UNIT, seed=8)

    def body():
        yield from ctrl.write(0, payload)
        before = paths[3].disk.peek(0, 4 * UNIT // SECTOR_SIZE)
        paths[3].disk.fail()
        paths[3].disk.repair()  # replacement disk, blank
        yield from ctrl.rebuild(3, max_rows=4)
        after = paths[3].disk.peek(0, 4 * UNIT // SECTOR_SIZE)
        data = yield from ctrl.read(0, len(payload))
        return before, after, data

    before, after, data = sim.run_process(body())
    assert after == before
    assert data == payload
    assert assert_parity_clean(ctrl, max_rows=4).rows_checked == 4


def test_raid5_concurrent_small_writes_same_row_stay_consistent(sim):
    paths = make_array(sim, 5)
    ctrl = Raid5Controller(sim, paths, UNIT)

    def writer(k, seed):
        yield from ctrl.write(k * UNIT, pattern(UNIT, seed=seed))

    for k in range(4):
        sim.process(writer(k, seed=10 + k))
    sim.run()
    assert assert_parity_clean(ctrl, max_rows=1).rows_checked == 1
    for k in range(4):
        assert ctrl.peek(k * UNIT, UNIT) == pattern(UNIT, seed=10 + k)


def test_raid5_concurrent_small_writes_disjoint_disks_parallel():
    """Independent small I/Os on disjoint disks overlap in time.

    This is Level 5's advantage over Level 3 (Section 4.2).  Unit 1
    (row 0) uses disks {1, 4}; unit 7 (row 1) uses disks {2, 3} —
    disjoint, so the two RMW writes should proceed concurrently.
    """
    def run(concurrent):
        local = Simulator()
        ctrl = Raid5Controller(local, make_array(local, 5), UNIT)

        def writer(unit_index, seed):
            yield from ctrl.write(unit_index * UNIT, pattern(4 * KIB, seed))

        if concurrent:
            local.process(writer(1, 1))
            local.process(writer(7, 2))
            return local.run()

        def serial():
            yield from writer(1, 1)
            yield from writer(7, 2)

        local.run_process(serial())
        return local.now

    assert run(concurrent=True) < 0.7 * run(concurrent=False)


# ---------------------------------------------------------------------------
# RAID 3
# ---------------------------------------------------------------------------

def test_raid3_roundtrip(sim):
    ctrl = Raid3Controller(sim, make_array(sim, 5))
    payload = pattern(16 * KIB, seed=11)

    def body():
        yield from ctrl.write(0, payload)
        data = yield from ctrl.read(0, len(payload))
        return data

    assert sim.run_process(body()) == payload
    assert assert_parity_clean(ctrl, max_rows=8).rows_checked == 8


def test_raid3_unaligned_write_rmw(sim):
    ctrl = Raid3Controller(sim, make_array(sim, 5))

    def body():
        yield from ctrl.write(0, pattern(8 * KIB, seed=12))
        yield from ctrl.write(3 * SECTOR_SIZE, pattern(SECTOR_SIZE, seed=13))
        data = yield from ctrl.read(0, 8 * KIB)
        return data

    data = sim.run_process(body())
    expected = bytearray(pattern(8 * KIB, seed=12))
    expected[3 * SECTOR_SIZE:4 * SECTOR_SIZE] = pattern(SECTOR_SIZE, seed=13)
    assert data == bytes(expected)
    assert assert_parity_clean(ctrl, max_rows=4).rows_checked == 4


def test_raid3_engages_all_data_disks_per_read(sim):
    paths = make_array(sim, 5)
    ctrl = Raid3Controller(sim, paths, name="r3")

    def body():
        yield from ctrl.write(0, pattern(8 * KIB))
        for path in paths:
            path.disk.reads = 0
        yield from ctrl.read(0, 4 * KIB)

    sim.run_process(body())
    # All four data disks were read, even for a small request.
    assert all(path.disk.reads == 1 for path in paths[:4])


def test_raid3_serializes_concurrent_ios():
    """RAID 3 supports only one small I/O at a time (Section 4.2).

    Two concurrent small reads take as long as running them back to
    back — the array-wide lock forbids any overlap.
    """
    def run(concurrent):
        local = Simulator()
        ctrl = Raid3Controller(local, make_array(local, 5))

        def setup():
            yield from ctrl.write(0, pattern(64 * KIB))

        local.run_process(setup())
        base = local.now

        def reader(offset):
            yield from ctrl.read(offset, 4 * KIB)

        if concurrent:
            local.process(reader(0))
            local.process(reader(32 * KIB))
            local.run()
        else:
            def serial():
                yield from reader(0)
                yield from reader(32 * KIB)

            local.run_process(serial())
        return local.now - base

    concurrent_time = run(concurrent=True)
    serial_time = run(concurrent=False)
    assert concurrent_time >= 0.95 * serial_time
