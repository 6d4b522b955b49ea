"""Functional tests for the Log-Structured File System core."""

import dataclasses
import random

import pytest

from repro.errors import (DirectoryNotEmptyFsError, FileExistsFsError,
                          FileNotFoundFsError, IsADirectoryFsError,
                          NoSpaceFsError, NotADirectoryFsError)
from repro.hw.specs import LFS_SPEC
from repro.lfs import FileType, LogStructuredFS, blockmap, cleaner, recovery
from repro.lfs.ondisk import BLOCK_SIZE, N_DIRECT, ADDRS_PER_BLOCK
from repro.sim import Simulator
from repro.testing import MemoryDevice, assert_fs_consistent
from repro.units import KIB, MIB

# Small segments make multi-segment behaviour cheap to exercise.
FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)


def make_fs(capacity=8 * MIB, spec=FAST_SPEC, max_inodes=256):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = LogStructuredFS(sim, device, spec=spec, max_inodes=max_inodes)
    sim.run_process(fs.format())
    return sim, device, fs


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_format_creates_root():
    sim, _device, fs = make_fs()
    entries = sim.run_process(fs.readdir("/"))
    assert entries == {}
    attrs = sim.run_process(fs.stat("/"))
    assert attrs.ftype == FileType.DIRECTORY
    assert attrs.ino == 1


def test_format_then_fresh_mount():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/hello"))
    sim.run_process(fs.write("/hello", 0, b"world"))
    sim.run_process(fs.unmount())

    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC)
    sim.run_process(fs2.mount())
    assert sim.run_process(fs2.read("/hello", 0, 5)) == b"world"


def test_device_too_small_rejected():
    sim = Simulator()
    device = MemoryDevice(sim, 256 * KIB)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC)
    with pytest.raises(Exception):
        sim.run_process(fs.format())


def test_operations_require_mount():
    sim = Simulator()
    device = MemoryDevice(sim, 8 * MIB)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC)
    with pytest.raises(Exception):
        sim.run_process(fs.read("/x", 0, 1))


# ---------------------------------------------------------------------------
# files: write / read
# ---------------------------------------------------------------------------

def test_small_file_roundtrip():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"hello lfs"))
    assert sim.run_process(fs.read("/f", 0, 100)) == b"hello lfs"


def test_read_beyond_eof_clamped():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"abc"))
    assert sim.run_process(fs.read("/f", 2, 100)) == b"c"
    assert sim.run_process(fs.read("/f", 3, 100)) == b""
    assert sim.run_process(fs.read("/f", 99, 1)) == b""


def test_sub_block_overwrite():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"A" * 100))
    sim.run_process(fs.write("/f", 50, b"B" * 10))
    data = sim.run_process(fs.read("/f", 0, 100))
    assert data == b"A" * 50 + b"B" * 10 + b"A" * 40


def test_sparse_file_reads_zeros():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 10 * BLOCK_SIZE, b"end"))
    data = sim.run_process(fs.read("/f", 0, BLOCK_SIZE))
    assert data == bytes(BLOCK_SIZE)
    assert sim.run_process(fs.read("/f", 10 * BLOCK_SIZE, 3)) == b"end"


def test_multi_block_file_roundtrip():
    sim, _device, fs = make_fs()
    payload = pattern(10 * BLOCK_SIZE + 123, seed=1)
    sim.run_process(fs.create("/big"))
    sim.run_process(fs.write("/big", 0, payload))
    assert sim.run_process(fs.read("/big", 0, len(payload))) == payload


def test_file_spanning_indirect_blocks():
    sim, _device, fs = make_fs(capacity=24 * MIB)
    nblocks = N_DIRECT + 40  # requires the single-indirect chunk
    payload = pattern(nblocks * BLOCK_SIZE, seed=2)
    sim.run_process(fs.create("/ind"))
    sim.run_process(fs.write("/ind", 0, payload))
    sim.run_process(fs.sync())
    assert sim.run_process(fs.read("/ind", 0, len(payload))) == payload


def test_file_spanning_double_indirect():
    sim, _device, fs = make_fs(capacity=24 * MIB)
    # Just over the single-indirect limit.
    nblocks = N_DIRECT + ADDRS_PER_BLOCK + 5
    payload = pattern(nblocks * BLOCK_SIZE, seed=3)
    sim.run_process(fs.create("/huge"))
    sim.run_process(fs.write("/huge", 0, payload))
    sim.run_process(fs.sync())
    assert sim.run_process(fs.read("/huge", 0, len(payload))) == payload


FIRST_DOUBLE = N_DIRECT + ADDRS_PER_BLOCK


def write_blocks(sim, fs, content, bidxs, seed=0):
    """Write a patterned block at each of ``bidxs`` of ``/sparse``,
    mirroring it into ``content``."""
    for offset, bidx in enumerate(bidxs):
        block = pattern(BLOCK_SIZE, seed=seed + offset)
        content[bidx * BLOCK_SIZE:(bidx + 1) * BLOCK_SIZE] = block
        sim.run_process(fs.write("/sparse", bidx * BLOCK_SIZE, block))


def make_sparse_file(sim, fs):
    """``/sparse``: blocks straddling each pointer boundary (direct/single
    indirect, single/double indirect, one double-indirect chunk and the
    next), with holes between them and a never-written chunk in the
    middle.  Returns its contents."""
    written = [N_DIRECT - 2, N_DIRECT - 1, N_DIRECT, N_DIRECT + 3,
               FIRST_DOUBLE - 1, FIRST_DOUBLE, FIRST_DOUBLE + 1,
               FIRST_DOUBLE + ADDRS_PER_BLOCK - 1,
               FIRST_DOUBLE + 3 * ADDRS_PER_BLOCK]
    content = bytearray((written[-1] + 1) * BLOCK_SIZE)
    sim.run_process(fs.create("/sparse"))
    write_blocks(sim, fs, content, written)
    return content


def test_cold_mount_reads_across_every_pointer_level():
    # Every range is read on a cold mount (pointer blocks loaded from
    # the log) and again with them resident.
    sim, device, fs = make_fs()
    content = make_sparse_file(sim, fs)
    sim.run_process(fs.unmount())
    ranges = [(N_DIRECT - 3, N_DIRECT + 4), (FIRST_DOUBLE - 2, FIRST_DOUBLE + 2),
              (FIRST_DOUBLE + ADDRS_PER_BLOCK - 2, FIRST_DOUBLE + ADDRS_PER_BLOCK + 1),
              (FIRST_DOUBLE + 2 * ADDRS_PER_BLOCK - 1, len(content) // BLOCK_SIZE)]
    for cold in (True, False):
        fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
        sim.run_process(fs.mount())
        if not cold:
            whole = sim.run_process(fs.read("/sparse", 0, len(content)))
            assert whole == content
        for lo, hi in ranges:
            got = sim.run_process(fs.read("/sparse", lo * BLOCK_SIZE + 7,
                                          (hi - lo) * BLOCK_SIZE - 7))
            assert got == bytes(content[lo * BLOCK_SIZE + 7:hi * BLOCK_SIZE])
        sim.run_process(fs.unmount())


def assert_liveness_agrees(sim, fs):
    """Checkpoint, then check that the resident block map (loading what
    it lacks) and the log-peek block map find every logged block equally
    live, and that each segment's live blocks sum to its usage entry."""
    sim.run_process(fs.checkpoint())
    log = blockmap.LogPeek(fs)
    for segment, fragments in enumerate(recovery.scan_log(fs)):
        base = fs.writer.segment_base(segment)
        live_bytes = 0
        for fragment in fragments:
            addr = base + fragment.start_offset
            for block_id in fragment.summary.entries:
                addr += 1
                resident = blockmap.is_live(fs, fs._inodes.get, fs._chunks,
                                            block_id, addr)
                if resident is None:
                    resident = sim.run_process(
                        cleaner._is_live_timed(fs, block_id, addr))
                peeked = blockmap.is_live(fs, log.inode, log, block_id, addr)
                assert resident == peeked, (block_id, addr)
                live_bytes += BLOCK_SIZE if resident else 0
        assert live_bytes == fs.usage[segment].live_bytes, segment


def test_every_pointer_level_through_crash_fsck_and_clean(monkeypatch):
    # Roll-forward, the usage rebuild, fsck and the cleaner each walk the
    # block map of a file reaching past its single-indirect block.
    sim, device, fs = make_fs()
    content = make_sparse_file(sim, fs)
    sim.run_process(fs.checkpoint())
    write_blocks(sim, fs, content,
                 [N_DIRECT - 1, N_DIRECT + 3, FIRST_DOUBLE + 1,
                  FIRST_DOUBLE + 3 * ADDRS_PER_BLOCK], seed=100)
    sim.run_process(fs.sync())
    fs.crash()

    rebuilds = []
    rebuild_usage = recovery.rebuild_usage
    monkeypatch.setattr(recovery, "rebuild_usage", lambda fs, scans: (
        rebuilds.append(fs), rebuild_usage(fs, scans)))
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.mount())
    assert rebuilds == [fs]
    assert sim.run_process(fs.read("/sparse", 0, len(content))) == content
    assert_fs_consistent(fs)
    assert_liveness_agrees(sim, fs)

    assert len(sim.run_process(fs.clean(max_segments=1))) == 1
    assert_fs_consistent(fs)
    assert_liveness_agrees(sim, fs)
    sim.run_process(fs.unmount())
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.mount())
    assert sim.run_process(fs.read("/sparse", 0, len(content))) == content


def test_read_after_sync_hits_disk():
    sim, device, fs = make_fs()
    payload = pattern(3 * BLOCK_SIZE, seed=4)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, payload))
    sim.run_process(fs.sync())
    # Invalidate volatile caches to force a disk path.
    fs._inodes.clear()
    fs._chunks.clear()
    assert sim.run_process(fs.read("/f", 0, len(payload))) == payload


def test_write_at_offset_extends_size():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 100, b"xyz"))
    attrs = sim.run_process(fs.stat("/f"))
    assert attrs.size == 103
    data = sim.run_process(fs.read("/f", 0, 103))
    assert data == bytes(100) + b"xyz"


def test_truncate_shrinks_and_frees():
    sim, _device, fs = make_fs()
    payload = pattern(8 * BLOCK_SIZE, seed=5)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, payload))
    sim.run_process(fs.truncate("/f", 5))
    attrs = sim.run_process(fs.stat("/f"))
    assert attrs.size == 5
    assert sim.run_process(fs.read("/f", 0, 100)) == payload[:5]


def test_overwrite_same_block_buffered_in_place():
    """Repeated writes to one block between flushes add no log blocks."""
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"v1"))
    appended_before = fs.writer.blocks_appended

    def body():
        for version in range(20):
            yield from fs.write("/f", 0, b"v%02d" % version)

    sim.run_process(body())
    assert fs.writer.blocks_appended == appended_before
    assert sim.run_process(fs.read("/f", 0, 3)) == b"v19"


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------

def test_nested_directories():
    sim, _device, fs = make_fs()
    sim.run_process(fs.mkdir("/a"))
    sim.run_process(fs.mkdir("/a/b"))
    sim.run_process(fs.create("/a/b/file"))
    sim.run_process(fs.write("/a/b/file", 0, b"deep"))
    assert sim.run_process(fs.read("/a/b/file", 0, 4)) == b"deep"
    entries = sim.run_process(fs.readdir("/a"))
    assert set(entries) == {"b"}
    assert entries["b"][1] == FileType.DIRECTORY


def test_create_existing_rejected():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    with pytest.raises(FileExistsFsError):
        sim.run_process(fs.create("/f"))
    with pytest.raises(FileExistsFsError):
        sim.run_process(fs.mkdir("/f"))


def test_lookup_missing_raises():
    sim, _device, fs = make_fs()
    with pytest.raises(FileNotFoundFsError):
        sim.run_process(fs.read("/nope", 0, 1))
    assert sim.run_process(fs.exists("/nope")) is False


def test_file_component_in_path_rejected():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    with pytest.raises(NotADirectoryFsError):
        sim.run_process(fs.create("/f/child"))


def test_read_directory_as_file_rejected():
    sim, _device, fs = make_fs()
    sim.run_process(fs.mkdir("/d"))
    with pytest.raises(IsADirectoryFsError):
        sim.run_process(fs.read("/d", 0, 1))


def test_unlink_then_recreate():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"old"))
    sim.run_process(fs.unlink("/f"))
    assert sim.run_process(fs.exists("/f")) is False
    sim.run_process(fs.create("/f"))
    assert sim.run_process(fs.read("/f", 0, 10)) == b""


def test_unlink_missing_raises():
    sim, _device, fs = make_fs()
    with pytest.raises(FileNotFoundFsError):
        sim.run_process(fs.unlink("/ghost"))


def test_unlink_directory_rejected():
    sim, _device, fs = make_fs()
    sim.run_process(fs.mkdir("/d"))
    with pytest.raises(IsADirectoryFsError):
        sim.run_process(fs.unlink("/d"))


def test_rmdir_empty_only():
    sim, _device, fs = make_fs()
    sim.run_process(fs.mkdir("/d"))
    sim.run_process(fs.create("/d/f"))
    with pytest.raises(DirectoryNotEmptyFsError):
        sim.run_process(fs.rmdir("/d"))
    sim.run_process(fs.unlink("/d/f"))
    sim.run_process(fs.rmdir("/d"))
    assert sim.run_process(fs.exists("/d")) is False


def test_many_files_in_directory():
    sim, _device, fs = make_fs()

    def body():
        for index in range(50):
            yield from fs.create(f"/file{index:03d}")

    sim.run_process(body())
    entries = sim.run_process(fs.readdir("/"))
    assert len(entries) == 50


def test_stat_reports_mtime_progression():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    first = sim.run_process(fs.stat("/f")).mtime

    def later():
        yield sim.timeout(1.0)
        yield from fs.write("/f", 0, b"x")

    sim.run_process(later())
    second = sim.run_process(fs.stat("/f")).mtime
    assert second > first


# ---------------------------------------------------------------------------
# log mechanics
# ---------------------------------------------------------------------------

def test_segment_buffer_groups_small_writes():
    """Many small writes produce few, large device writes (LFS's point)."""
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    writes_before = device.writes

    def body():
        for index in range(100):
            yield from fs.write("/f", index * 1024, pattern(1024, seed=index))

    sim.run_process(body())
    buffered_only = device.writes - writes_before
    sim.run_process(fs.sync())
    # 100 KiB of small writes: nothing hits the device until the
    # segment fills or syncs, and the sync is a handful of big writes.
    assert buffered_only == 0
    assert device.writes - writes_before <= 4


def test_log_advances_across_segments():
    sim, _device, fs = make_fs()
    payload = pattern(300 * KIB, seed=9)  # > 2 segments of 128 KiB
    sim.run_process(fs.create("/big"))
    sim.run_process(fs.write("/big", 0, payload))
    sim.run_process(fs.sync())
    assert fs.writer.segments_started >= 3
    assert sim.run_process(fs.read("/big", 0, len(payload))) == payload


def test_out_of_space_raises():
    sim, _device, fs = make_fs(capacity=1 * MIB)

    def body():
        yield from fs.create("/f")
        yield from fs.write("/f", 0, pattern(900 * KIB))
        yield from fs.sync()

    with pytest.raises(NoSpaceFsError):
        sim.run_process(body())


def test_statfs_counts():
    sim, _device, fs = make_fs()
    stats = fs.statfs()
    assert stats["segments"] > 10
    assert stats["clean_segments"] < stats["segments"]
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, pattern(200 * KIB)))
    sim.run_process(fs.sync())
    assert fs.statfs()["live_bytes"] > 200 * KIB
