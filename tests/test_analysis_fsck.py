"""Tests for the offline LFS consistency checker."""

import dataclasses
import random

import pytest

from repro.analysis import fsck
from repro.errors import ConsistencyError
from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.lfs.ondisk import BLOCK_SIZE, NULL_ADDR
from repro.sim import Simulator
from repro.testing import MemoryDevice, assert_fs_consistent
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)


def make_fs(capacity=8 * MIB):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.format())
    return sim, device, fs


def populate(sim, fs):
    sim.run_process(fs.mkdir("/dir"))
    sim.run_process(fs.create("/dir/file"))
    payload = random.Random(0).randbytes(300 * KIB)  # spills into indirects
    sim.run_process(fs.write("/dir/file", 0, payload))
    sim.run_process(fs.create("/small"))
    sim.run_process(fs.write("/small", 0, b"tiny"))
    sim.run_process(fs.checkpoint())


def test_clean_volume_passes():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    report = fsck(fs)
    assert report.ok, report.render()
    assert report.files == 2
    assert report.directories == 2  # root + /dir
    assert report.blocks_claimed > 0


def test_unflushed_state_is_reported():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"x"))
    report = fsck(fs)
    assert "FSCK-STATE" in report.codes()


def test_corrupted_imap_entry_is_caught():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    # Point an allocated inode's imap entry one block off, bypassing the
    # dirty tracking so memory and disk now silently disagree.
    ino = fs.imap.allocated_inodes()[0]
    fs.imap._addrs[ino] += 1
    report = fsck(fs)
    assert not report.ok
    assert "FSCK-IMAP" in report.codes()


def test_zeroed_inode_block_is_caught():
    sim, device, fs = make_fs()
    populate(sim, fs)
    addr = fs.imap.get(2)
    device.poke(addr * BLOCK_SIZE, bytes(BLOCK_SIZE))
    report = fsck(fs)
    assert "FSCK-INODE" in report.codes()


def test_double_allocation_is_caught():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    # Make two inodes share one on-disk inode block.
    inos = list(fs.imap.allocated_inodes())
    a, b = inos[-2], inos[-1]
    fs.imap._addrs[b] = fs.imap._addrs[a]
    report = fsck(fs)
    assert "FSCK-DUP" in report.codes()


def test_orphaned_inode_is_caught():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    # Drop a directory entry without freeing the inode.
    entries = sim.run_process(fs.readdir("/"))
    assert "small" in entries
    inode = sim.run_process(fs.stat("/small"))
    del entries["small"]
    root = fs._inodes[1]
    sim.run_process(fs._locked(fs._write_dir(root, entries)))
    sim.run_process(fs.checkpoint())
    report = fsck(fs)
    assert "FSCK-TREE" in report.codes()
    assert any(str(inode.ino) in f.message for f in report.findings)


def test_usage_table_drift_is_caught():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    dirty = [entry for entry in fs.usage if entry.live_bytes]
    dirty[0].live_bytes += BLOCK_SIZE
    report = fsck(fs)
    assert "FSCK-USAGE" in report.codes()


def test_dangling_pointer_past_eof_is_caught():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    inode = fs._inodes[1]  # root dir: small file, one block
    free_slot = next(i for i, a in enumerate(inode.direct)
                     if a == NULL_ADDR)
    inode.direct[free_slot] = fs.imap.get(1)  # any in-log address
    fs._dirty_inodes.add(1)
    sim.run_process(fs.checkpoint())  # persist the bad pointer
    report = fsck(fs)
    assert "FSCK-EOF" in report.codes()


def test_assert_fs_consistent_hook():
    sim, _device, fs = make_fs()
    populate(sim, fs)
    assert_fs_consistent(fs)  # flushes and passes

    ino = fs.imap.allocated_inodes()[0]
    fs.imap._addrs[ino] += 1
    with pytest.raises(ConsistencyError) as excinfo:
        assert_fs_consistent(fs)
    assert "FSCK" in str(excinfo.value)
    fs.imap._addrs[ino] -= 1


def test_cli_fsck_exit_codes(tmp_path):
    from repro.analysis.__main__ import main

    sim, device, fs = make_fs(capacity=4 * MIB)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"hello" * 1000))
    sim.run_process(fs.unmount())
    image = device.peek(0, device.capacity_bytes)

    good = tmp_path / "vol.img"
    good.write_bytes(image)
    assert main(["fsck", str(good)]) == 0

    # Re-mount a copy and zero the file's inode block on disk.
    sim2 = Simulator()
    device2 = MemoryDevice(sim2, len(image))
    device2.poke(0, image)
    fs2 = LogStructuredFS(sim2, device2, spec=FAST_SPEC)
    sim2.run_process(fs2.mount())
    addr = fs2.imap.get(2)
    device2.poke(addr * BLOCK_SIZE, bytes(BLOCK_SIZE))
    bad = tmp_path / "bad.img"
    bad.write_bytes(device2.peek(0, len(image)))
    assert main(["fsck", str(bad)]) != 0
