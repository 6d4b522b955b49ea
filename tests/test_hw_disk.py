"""Unit tests for the disk drive model."""

import gc
import tracemalloc

import pytest

from repro.errors import DiskFailedError, HardwareError
from repro.hw import IBM_0661, SEAGATE_WREN_IV, DiskDrive
from repro.sim import Simulator
from repro.units import KIB, MB, SECTOR_SIZE


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def disk(sim):
    return DiskDrive(sim, IBM_0661, name="d0")


def test_spec_derived_geometry():
    assert IBM_0661.revolution_time_s == pytest.approx(60.0 / 4316.0)
    assert IBM_0661.track_bytes == 60 * 512
    assert IBM_0661.media_rate_mb_s == pytest.approx(2.21, abs=0.05)
    assert IBM_0661.avg_seek_s == pytest.approx(0.0125, abs=0.0002)
    assert SEAGATE_WREN_IV.avg_seek_s == pytest.approx(0.0175, abs=0.0002)
    assert SEAGATE_WREN_IV.media_rate_mb_s == pytest.approx(1.44, abs=0.05)


def test_write_then_read_roundtrip(sim, disk):
    payload = bytes(range(256)) * 8  # 2 KB = 4 sectors

    def body():
        yield from disk.write(100, payload)
        data = yield from disk.read(100, 4)
        return data

    assert sim.run_process(body()) == payload


def test_unwritten_sectors_read_as_zero(sim, disk):
    def body():
        data = yield from disk.read(0, 2)
        return data

    assert sim.run_process(body()) == bytes(2 * SECTOR_SIZE)


def test_partial_overwrite(sim, disk):
    def body():
        yield from disk.write(10, b"\xaa" * (4 * SECTOR_SIZE))
        yield from disk.write(11, b"\xbb" * SECTOR_SIZE)
        data = yield from disk.read(10, 4)
        return data

    data = sim.run_process(body())
    assert data[:SECTOR_SIZE] == b"\xaa" * SECTOR_SIZE
    assert data[SECTOR_SIZE:2 * SECTOR_SIZE] == b"\xbb" * SECTOR_SIZE
    assert data[2 * SECTOR_SIZE:] == b"\xaa" * (2 * SECTOR_SIZE)


def test_random_read_charges_seek_and_rotation(sim, disk):
    far_lba = disk.num_sectors - 128

    def body():
        yield from disk.read(far_lba, 128)
        return sim.now

    elapsed = sim.run_process(body())
    spec = disk.spec
    expected_min = (spec.per_op_overhead_s + spec.avg_rotational_latency_s
                    + disk.media_transfer_time(128 * SECTOR_SIZE))
    # A far seek adds close to max_seek.
    assert elapsed > expected_min + 0.8 * spec.max_seek_s


def test_sequential_read_skips_seek_and_rotation(sim, disk):
    nsectors = 128  # 64 KB

    def body():
        yield from disk.read(0, nsectors)
        first = sim.now
        yield from disk.read(nsectors, nsectors)
        second = sim.now - first
        return second

    second_op = sim.run_process(body())
    expected = (disk.spec.per_op_overhead_s
                + disk.media_transfer_time(nsectors * SECTOR_SIZE))
    assert second_op == pytest.approx(expected)


def test_sequential_write_pays_rotation_fraction(sim, disk):
    payload = bytes(64 * KIB)

    def body():
        yield from disk.write(0, payload)
        first = sim.now
        yield from disk.write(128, payload)
        return sim.now - first

    second_op = sim.run_process(body())
    spec = disk.spec
    expected = (spec.per_op_overhead_s
                + spec.sequential_write_rotation_fraction * spec.revolution_time_s
                + disk.media_transfer_time(len(payload)))
    assert second_op == pytest.approx(expected)


def test_sequential_read_rate_near_two_mb_s(sim, disk):
    """One disk streaming 64 KB reads sustains ~2 MB/s (Figure 7 anchor)."""
    total = 2 * MB
    unit = 64 * KIB

    def body():
        for index in range(total // unit):
            yield from disk.read(index * 128, 128)
        return sim.now

    elapsed = sim.run_process(body())
    rate = total / MB / elapsed
    assert 1.8 < rate < 2.3


def test_random_4k_service_time_near_23ms(sim, disk):
    """4 KB random ops on the IBM 0661 average ~23 ms (Table 2 anchor)."""
    import random

    rng = random.Random(42)
    lbas = [rng.randrange(0, disk.num_sectors - 8) for _ in range(50)]

    def body():
        for lba in lbas:
            yield from disk.read(lba, 8)
        return sim.now

    elapsed = sim.run_process(body())
    per_op = elapsed / len(lbas)
    assert 0.019 < per_op < 0.027


def test_failed_disk_raises(sim, disk):
    disk.fail()

    def body():
        yield from disk.read(0, 1)

    with pytest.raises(DiskFailedError):
        sim.run_process(body())


def test_repair_wipes_contents(sim, disk):
    def write_body():
        yield from disk.write(0, b"\x11" * SECTOR_SIZE)

    sim.run_process(write_body())
    disk.fail()
    disk.repair()
    assert disk.peek(0, 1) == bytes(SECTOR_SIZE)
    assert not disk.failed


def test_repair_can_preserve_contents(sim, disk):
    disk.poke(0, b"\x22" * SECTOR_SIZE)
    disk.fail()
    disk.repair(wipe=False)
    assert disk.peek(0, 1) == b"\x22" * SECTOR_SIZE


def test_out_of_range_extent_rejected(sim, disk):
    with pytest.raises(HardwareError):
        disk.peek(disk.num_sectors, 1)
    with pytest.raises(HardwareError):
        disk.peek(-1, 1)

    def body():
        yield from disk.read(disk.num_sectors - 1, 2)

    with pytest.raises(HardwareError):
        sim.run_process(body())


def test_unaligned_write_rejected(sim, disk):
    def body():
        yield from disk.write(0, b"odd-size")

    with pytest.raises(HardwareError):
        sim.run_process(body())


def test_zero_length_transfer_rejected(disk):
    with pytest.raises(HardwareError):
        disk.peek(0, 0)


def test_disk_serializes_commands(sim, disk):
    """Two concurrent reads are serviced one at a time."""
    done = []

    def reader(tag):
        yield from disk.read(0, 128)
        done.append((tag, sim.now))

    sim.process(reader("a"))
    sim.process(reader("b"))
    sim.run()
    assert len(done) == 2
    assert done[1][1] > done[0][1]


def test_stats_accumulate(sim, disk):
    def body():
        yield from disk.write(0, bytes(1024))
        yield from disk.read(0, 2)

    sim.run_process(body())
    assert disk.reads == 1
    assert disk.writes == 1
    assert disk.bytes_read == 1024
    assert disk.bytes_written == 1024
    assert disk.busy.busy_time > 0


def test_poke_peek_do_not_advance_clock(sim, disk):
    disk.poke(5, b"\x01" * SECTOR_SIZE)
    assert disk.peek(5, 1) == b"\x01" * SECTOR_SIZE
    assert sim.now == 0.0


def test_snapshot_copies_written_extents_only(sim, disk):
    # One written 4 KiB block on a 320 MB drive: the snapshot copies
    # about that block, not the capacity.
    disk.poke(8000, b"\x5a" * (4 * KIB))
    tracemalloc.start()
    try:
        state = disk.snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * KIB

    fresh = DiskDrive(Simulator(), IBM_0661, name="d0")
    fresh.poke(0, b"\x11" * SECTOR_SIZE)
    fresh.restore(state)
    assert fresh.peek(8000, 8) == b"\x5a" * (4 * KIB)
    assert fresh.peek(0, 1) == bytes(SECTOR_SIZE)
    # A restored drive snapshots what it was restored to.
    again = DiskDrive(Simulator(), IBM_0661, name="d0")
    again.restore(fresh.snapshot())
    assert again.peek(8000, 8) == b"\x5a" * (4 * KIB)


def test_new_drive_reads_zeros_after_old_drive_is_collected(sim):
    # A collected drive's store is zeroed and reused by the next drive
    # of its capacity (this one ends in a partial 4 KiB block).
    last_lba = SEAGATE_WREN_IV.capacity_bytes // SECTOR_SIZE - 1
    old = DiskDrive(sim, SEAGATE_WREN_IV, name="old")
    old.poke(0, b"\x77" * (64 * KIB))
    old.poke(last_lba, b"\x77" * SECTOR_SIZE)
    state = old.snapshot()
    del old
    gc.collect()
    new = DiskDrive(sim, SEAGATE_WREN_IV, name="new")
    assert new.peek(0, 128) == bytes(64 * KIB)
    assert new.peek(last_lba, 1) == bytes(SECTOR_SIZE)
    new.restore(state)
    assert new.peek(last_lba, 1) == b"\x77" * SECTOR_SIZE
