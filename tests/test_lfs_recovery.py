"""Crash-recovery tests: checkpoints, roll-forward, torn writes."""

import dataclasses
import random

import pytest

from repro.errors import CorruptFileSystemError, CrashPoint
from repro.faults import (CrashableDevice, FaultInjector, FaultPlan,
                          HostCrash, restore_media)
from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.lfs.ondisk import BLOCK_SIZE
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)


def make_fs(capacity=8 * MIB):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.format())
    return sim, device, fs


def remount(sim, device):
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.mount())
    return fs


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


# ---------------------------------------------------------------------------
# clean shutdown / checkpoint behaviour
# ---------------------------------------------------------------------------

def test_checkpointed_state_survives_crash():
    sim, device, fs = make_fs()
    payload = pattern(50 * KIB, seed=1)
    sim.run_process(fs.mkdir("/dir"))
    sim.run_process(fs.create("/dir/file"))
    sim.run_process(fs.write("/dir/file", 0, payload))
    sim.run_process(fs.checkpoint())
    fs.crash()

    fs2 = remount(sim, device)
    assert sim.run_process(fs2.read("/dir/file", 0, len(payload))) == payload


def test_unsynced_data_lost_after_crash():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.checkpoint())
    sim.run_process(fs.write("/f", 0, b"buffered only"))
    fs.crash()  # the segment buffer never reached disk

    fs2 = remount(sim, device)
    assert sim.run_process(fs2.read("/f", 0, 100)) == b""


def test_synced_but_not_checkpointed_data_rolls_forward():
    """sync() flushes fragments; roll-forward must recover them."""
    sim, device, fs = make_fs()
    payload = pattern(30 * KIB, seed=2)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.checkpoint())
    sim.run_process(fs.write("/f", 0, payload))
    sim.run_process(fs.sync())  # fragments on disk, checkpoint stale
    fs.crash()

    fs2 = remount(sim, device)
    assert sim.run_process(fs2.read("/f", 0, len(payload))) == payload


def test_file_created_after_checkpoint_rolls_forward():
    sim, device, fs = make_fs()
    sim.run_process(fs.checkpoint())
    sim.run_process(fs.create("/late"))
    sim.run_process(fs.write("/late", 0, b"made it"))
    sim.run_process(fs.sync())
    fs.crash()

    fs2 = remount(sim, device)
    assert sim.run_process(fs2.read("/late", 0, 7)) == b"made it"


def test_unlink_after_checkpoint_rolls_forward():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/doomed"))
    sim.run_process(fs.checkpoint())
    sim.run_process(fs.unlink("/doomed"))
    sim.run_process(fs.sync())
    fs.crash()

    fs2 = remount(sim, device)
    assert sim.run_process(fs2.exists("/doomed")) is False


def test_multiple_checkpoints_alternate_regions():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    for round_no in range(4):
        sim.run_process(fs.write("/f", 0, b"round %d" % round_no))
        sim.run_process(fs.checkpoint())
    fs.crash()
    fs2 = remount(sim, device)
    assert sim.run_process(fs2.read("/f", 0, 7)) == b"round 3"


def test_mount_without_format_fails():
    sim = Simulator()
    device = MemoryDevice(sim, 8 * MIB)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC)
    with pytest.raises(CorruptFileSystemError):
        sim.run_process(fs.mount())


def test_recovery_is_fast_relative_to_volume():
    """The paper's claim: recovery processes only the tail, not the disk.

    Mount time after a crash must not scale with the amount of
    checkpointed data (the instant usage scan is untimed; the timed
    part reads the checkpoint and imap only).
    """
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/big"))
    sim.run_process(fs.write("/big", 0, pattern(2 * MIB, seed=3)))
    sim.run_process(fs.checkpoint())
    fs.crash()

    start = sim.now
    remount(sim, device)
    mount_time = sim.now - start
    # Far less than reading 2 MiB at the device's 100 MB/s (20 ms+).
    assert mount_time < 0.01


# ---------------------------------------------------------------------------
# torn writes / power failures mid-flush
# ---------------------------------------------------------------------------

def crash_during_workload(nth_write, torn_fraction):
    """Run a deterministic workload whose host crashes during its
    ``nth_write``-th device write after the first checkpoint, with
    ``torn_fraction`` of that write landed (rounded down to whole
    sectors); return (sim, device holding the crash-time media,
    checkpointed payload) on a fresh machine."""
    sim = Simulator()
    raw = MemoryDevice(sim, 8 * MIB)
    fs = LogStructuredFS(sim, raw, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.format())
    payload_a = pattern(40 * KIB, seed=10)
    sim.run_process(fs.create("/stable"))
    sim.run_process(fs.write("/stable", 0, payload_a))
    sim.run_process(fs.checkpoint())
    fs.crash()

    # Phase 2: remount through a crashable device and write more.
    plan = FaultPlan((HostCrash(nth_write=nth_write,
                                torn_fraction=torn_fraction),))
    crashing = CrashableDevice(raw, FaultInjector(sim, plan))
    fs2 = LogStructuredFS(sim, crashing, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs2.mount())

    def work():
        yield from fs2.create("/fresh")
        for index in range(8):
            yield from fs2.write("/fresh", index * 8 * KIB,
                                 pattern(8 * KIB, seed=20 + index))
            yield from fs2.sync()
        yield from fs2.checkpoint()

    # Every crash point below lies inside the workload's 11 writes.
    with pytest.raises(CrashPoint) as crash:
        sim.run_process(work())
    sim = Simulator()
    device = MemoryDevice(sim, 8 * MIB)
    restore_media(crash.value.snapshot, device)
    return sim, device, payload_a


@pytest.mark.parametrize("nth_write,torn_fraction", [
    (1, 0.0), (1, 0.5), (4, 0.5), (7, 0.0), (9, 0.25), (11, 0.5)])
def test_recovery_after_power_failure_at_any_point(nth_write, torn_fraction):
    """Whatever the crash point, mount succeeds and checkpointed data
    is intact; recovered state is a consistent prefix of the workload."""
    sim, device, payload_a = crash_during_workload(nth_write, torn_fraction)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=256)
    sim.run_process(fs.mount())
    assert sim.run_process(fs.read("/stable", 0, len(payload_a))) == payload_a
    # /fresh either doesn't exist or holds a prefix of the writes.
    if sim.run_process(fs.exists("/fresh")):
        attrs = sim.run_process(fs.stat("/fresh"))
        assert attrs.size % (8 * KIB) == 0
        nchunks = attrs.size // (8 * KIB)
        for index in range(nchunks):
            got = sim.run_process(fs.read("/fresh", index * 8 * KIB, 8 * KIB))
            assert got == pattern(8 * KIB, seed=20 + index)


def test_torn_checkpoint_falls_back_to_older_region():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"v1"))
    sim.run_process(fs.checkpoint())
    cp_seq = fs.checkpoint_seq
    sim.run_process(fs.write("/f", 0, b"v2"))
    sim.run_process(fs.checkpoint())
    # Corrupt the newest checkpoint region (the one cp_seq+1 used).
    sb = fs.sb
    region = sb.checkpoint_a if (cp_seq + 1) % 2 else sb.checkpoint_b
    device.poke(region * BLOCK_SIZE + 8, b"\xde\xad\xbe\xef")
    fs.crash()

    fs2 = remount(sim, device)
    # Fell back to the older checkpoint, then roll-forward replays the
    # v2 fragments — data is still current.
    assert sim.run_process(fs2.read("/f", 0, 2)) == b"v2"


def test_usage_rebuild_matches_accounting():
    """Live-byte accounting after remount equals the incremental one."""
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.write("/a", 0, pattern(100 * KIB, seed=4)))
    sim.run_process(fs.create("/b"))
    sim.run_process(fs.write("/b", 0, pattern(60 * KIB, seed=5)))
    sim.run_process(fs.unlink("/a"))
    sim.run_process(fs.checkpoint())
    incremental = [entry.live_bytes for entry in fs.usage]
    fs.crash()

    fs2 = remount(sim, device)
    rebuilt = [entry.live_bytes for entry in fs2.usage]
    assert rebuilt == incremental
