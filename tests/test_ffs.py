"""Tests for the update-in-place (FFS-style) baseline file system."""

import dataclasses
import random

import pytest

from repro.errors import (FileExistsFsError, FileNotFoundFsError,
                          NoSpaceFsError)
from repro.ffs import UpdateInPlaceFS
from repro.hw import IBM_0661, DiskDrive
from repro.lfs.ondisk import BLOCK_SIZE
from repro.raid import DirectDiskPath, Raid5Controller
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB


def make_fs(capacity=8 * MIB):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = UpdateInPlaceFS(sim, device, max_files=32)
    sim.run_process(fs.format())
    return sim, device, fs


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


def test_roundtrip():
    sim, _device, fs = make_fs()
    payload = pattern(20 * KIB, seed=1)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, payload))
    assert sim.run_process(fs.read("/f", 0, len(payload))) == payload


def test_sub_block_overwrite():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"A" * 100))
    sim.run_process(fs.write("/f", 10, b"B" * 5))
    assert sim.run_process(fs.read("/f", 0, 100)) == \
        b"A" * 10 + b"B" * 5 + b"A" * 85


def test_file_spanning_indirect():
    sim, _device, fs = make_fs()
    payload = pattern(20 * BLOCK_SIZE, seed=2)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, payload))
    assert sim.run_process(fs.read("/f", 0, len(payload))) == payload


def test_blocks_are_overwritten_in_place():
    """Unlike LFS, rewriting a block reuses its home location."""
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, pattern(BLOCK_SIZE, seed=3)))
    writes_first = device.writes
    sim.run_process(fs.write("/f", 0, pattern(BLOCK_SIZE, seed=4)))
    # Rewrite costs the same data-block write (plus inode), no new block.
    assert device.writes - writes_first <= 3
    addr_bits_used = sum(bin(b).count("1") for b in fs._bitmap)
    sim.run_process(fs.write("/f", 0, pattern(BLOCK_SIZE, seed=5)))
    assert sum(bin(b).count("1") for b in fs._bitmap) == addr_bits_used


def test_create_duplicate_and_missing():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    with pytest.raises(FileExistsFsError):
        sim.run_process(fs.create("/f"))
    with pytest.raises(FileNotFoundFsError):
        sim.run_process(fs.read("/ghost", 0, 1))


def test_unlink_frees_space():
    sim, _device, fs = make_fs(capacity=1 * MIB)
    big = pattern(600 * KIB, seed=6)
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.write("/a", 0, big))
    with pytest.raises(NoSpaceFsError):
        def overfill():
            yield from fs.create("/b")
            yield from fs.write("/b", 0, big)
        sim.run_process(overfill())
    sim.run_process(fs.unlink("/a"))
    assert not fs.exists("/a")
    sim.run_process(fs.create("/c"))
    sim.run_process(fs.write("/c", 0, pattern(500 * KIB, seed=7)))
    assert sim.run_process(fs.read("/c", 0, 500 * KIB)) == pattern(
        500 * KIB, seed=7)


def test_allocation_is_first_free():
    """Blocks go to the lowest free data block: consecutive from the
    data start, freed holes refilled lowest first, ENOSPC when full."""
    sim, device, fs = make_fs(capacity=1 * MIB)
    start = fs._data_start

    def block_at(addr):
        return device.peek(addr * BLOCK_SIZE, BLOCK_SIZE)

    files = {name: pattern(2 * BLOCK_SIZE, seed=index)
             for index, name in enumerate(["/a", "/b", "/c"])}
    for name, payload in files.items():
        sim.run_process(fs.create(name))
        sim.run_process(fs.write(name, 0, payload))
    for index, payload in enumerate(files.values()):
        assert block_at(start + 2 * index) == payload[:BLOCK_SIZE]
        assert block_at(start + 2 * index + 1) == payload[BLOCK_SIZE:]

    sim.run_process(fs.unlink("/b"))
    refill = pattern(3 * BLOCK_SIZE, seed=10)
    sim.run_process(fs.create("/d"))
    sim.run_process(fs.write("/d", 0, refill))
    assert block_at(start + 2) == refill[:BLOCK_SIZE]
    assert block_at(start + 3) == refill[BLOCK_SIZE:2 * BLOCK_SIZE]
    assert block_at(start + 6) == refill[2 * BLOCK_SIZE:]

    sim.run_process(fs.create("/e"))
    with pytest.raises(NoSpaceFsError):
        sim.run_process(fs.write("/e", 0, pattern(fs._total_blocks
                                                  * BLOCK_SIZE, seed=11)))
    assert sim.run_process(fs.fsck())["errors"] == 0

    # A block freed on a full volume is the next one handed out.
    sim.run_process(fs.unlink("/a"))
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, pattern(BLOCK_SIZE, seed=12)))
    assert block_at(start) == pattern(BLOCK_SIZE, seed=12)
    assert sim.run_process(fs.fsck())["errors"] == 0


def test_small_write_on_raid5_triggers_rmw():
    """The motivating behaviour: FFS small writes become RAID-5 RMWs."""
    sim = Simulator()
    small_disk = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
    paths = [DirectDiskPath(DiskDrive(sim, small_disk, name=f"d{i}"))
             for i in range(5)]
    raid = Raid5Controller(sim, paths, 64 * KIB)
    fs = UpdateInPlaceFS(sim, raid, max_files=16)
    sim.run_process(fs.format())
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, pattern(256 * KIB, seed=8)))
    rmw_before = raid.rmw_writes
    sim.run_process(fs.write("/f", 8 * KIB, pattern(4 * KIB, seed=9)))
    assert raid.rmw_writes > rmw_before
