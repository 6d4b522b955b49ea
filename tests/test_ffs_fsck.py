"""Tests for the FFS fsck pass and the recovery-time experiment."""

import random

from repro.ffs import UpdateInPlaceFS
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB


def make_fs():
    sim = Simulator()
    device = MemoryDevice(sim, 8 * MIB)
    fs = UpdateInPlaceFS(sim, device, max_files=32)
    sim.run_process(fs.format())
    return sim, device, fs


def test_fsck_clean_volume():
    sim, _device, fs = make_fs()
    report = sim.run_process(fs.fsck())
    assert report == {"files": 0, "blocks_claimed": 0, "errors": 0}


def test_fsck_counts_files_and_blocks():
    sim, _device, fs = make_fs()
    rng = random.Random(1)

    def body():
        for index in range(5):
            path = f"/f{index}"
            yield from fs.create(path)
            yield from fs.write(path, 0, rng.randbytes(96 * KIB))

    sim.run_process(body())
    report = sim.run_process(fs.fsck())
    assert report["files"] == 5
    assert report["errors"] == 0
    # 96 KiB = 24 data blocks + 1 indirect block per file.
    assert report["blocks_claimed"] == 5 * 25


def test_fsck_detects_bitmap_inconsistency():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"x" * (8 * KIB)))
    # Corrupt: clear the bitmap bit of an allocated block.
    addr = fs._inodes[fs._names["/f"]].direct[0]
    fs._clear_bit(addr)
    report = sim.run_process(fs.fsck())
    assert report["errors"] >= 1


def test_fsck_detects_double_claim():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.create("/b"))
    sim.run_process(fs.write("/a", 0, b"x" * (4 * KIB)))
    sim.run_process(fs.write("/b", 0, b"y" * (4 * KIB)))
    # Corrupt: point /b's first block at /a's.
    fs._inodes[fs._names["/b"]].direct[0] = \
        fs._inodes[fs._names["/a"]].direct[0]
    report = sim.run_process(fs.fsck())
    assert report["errors"] >= 1


def test_fsck_time_scales_with_files():
    sim, _device, fs = make_fs()
    rng = random.Random(2)

    def populate(count, base):
        for index in range(count):
            path = f"/x{base + index}"
            yield from fs.create(path)
            yield from fs.write(path, 0, rng.randbytes(64 * KIB))

    sim.run_process(populate(4, 0))
    start = sim.now
    sim.run_process(fs.fsck())
    few = sim.now - start

    sim.run_process(populate(12, 4))
    start = sim.now
    sim.run_process(fs.fsck())
    many = sim.now - start
    assert many > 1.5 * few


def test_recovery_time_experiment_quick():
    from repro.experiments import recovery_time

    result = recovery_time.run(quick=True)
    assert result.scalars["fsck_over_lfs"] > 5
    assert result.scalars["lfs_check_s"] < result.scalars["fsck_s"]
