"""Segment cleaner tests: reclamation, liveness, data preservation."""

import dataclasses
import random

import pytest

from repro.errors import NoSpaceFsError
from repro.hw.specs import LFS_SPEC
from repro.lfs import CleanerPolicy, LogStructuredFS
from repro.lfs.cleaner import pick_victims
from repro.lfs.ondisk import SegmentState
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=64 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)


def make_fs(capacity=4 * MIB):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs.format())
    return sim, device, fs


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


def test_clean_reclaims_dead_segments():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/junk"))
    sim.run_process(fs.write("/junk", 0, pattern(256 * KIB, seed=1)))
    sim.run_process(fs.sync())
    free_before = fs.free_segments()
    sim.run_process(fs.unlink("/junk"))
    sim.run_process(fs.sync())

    reclaimed = sim.run_process(fs.clean(max_segments=8))
    assert len(reclaimed) >= 3
    assert fs.free_segments() > free_before


def test_clean_preserves_live_data():
    sim, _device, fs = make_fs()
    keep = pattern(40 * KIB, seed=2)
    sim.run_process(fs.create("/keep"))
    sim.run_process(fs.create("/junk"))
    # Interleave keeper and junk writes so segments hold a mix.
    for index in range(10):
        sim.run_process(fs.write("/keep", index * 4 * KIB,
                                 keep[index * 4 * KIB:(index + 1) * 4 * KIB]))
        sim.run_process(fs.write("/junk", index * 16 * KIB,
                                 pattern(16 * KIB, seed=100 + index)))
    sim.run_process(fs.sync())
    sim.run_process(fs.unlink("/junk"))
    sim.run_process(fs.sync())

    reclaimed = sim.run_process(fs.clean(max_segments=8))
    assert reclaimed
    assert sim.run_process(fs.read("/keep", 0, len(keep))) == keep


def test_cleaned_data_survives_crash():
    sim, device, fs = make_fs()
    keep = pattern(60 * KIB, seed=3)
    sim.run_process(fs.create("/keep"))
    sim.run_process(fs.write("/keep", 0, keep))
    sim.run_process(fs.create("/junk"))
    sim.run_process(fs.write("/junk", 0, pattern(200 * KIB, seed=4)))
    sim.run_process(fs.sync())
    sim.run_process(fs.unlink("/junk"))
    sim.run_process(fs.clean(max_segments=8))
    fs.crash()

    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs2.mount())
    assert sim.run_process(fs2.read("/keep", 0, len(keep))) == keep


def _recount_clean(fs):
    return sum(1 for entry in fs.usage if entry.state == SegmentState.CLEAN)


def test_free_segments_matches_a_recount_after_clean_and_crash_mount():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/keep"))
    sim.run_process(fs.write("/keep", 0, pattern(60 * KIB, seed=7)))
    sim.run_process(fs.create("/junk"))
    sim.run_process(fs.write("/junk", 0, pattern(200 * KIB, seed=8)))
    sim.run_process(fs.sync())
    assert fs.free_segments() == _recount_clean(fs)
    before = fs.free_segments()
    sim.run_process(fs.unlink("/junk"))
    assert sim.run_process(fs.clean(max_segments=8))
    assert fs.free_segments() == _recount_clean(fs) > before
    fs.crash()

    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs2.mount())
    assert fs2.free_segments() == _recount_clean(fs2)
    assert fs2.statfs()["clean_segments"] == fs2.free_segments()


def test_cleaning_enables_further_writes():
    """Fill the log, delete, clean, and keep writing (space recycles)."""
    sim, _device, fs = make_fs(capacity=3 * MIB // 2)
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.write("/a", 0, pattern(800 * KIB, seed=5)))
    sim.run_process(fs.sync())
    sim.run_process(fs.unlink("/a"))
    sim.run_process(fs.sync())

    # Without cleaning this write would exhaust clean segments.
    def fill_again():
        yield from fs.create("/b")
        yield from fs.write("/b", 0, pattern(800 * KIB, seed=6))
        yield from fs.sync()

    with pytest.raises(NoSpaceFsError):
        sim.run_process(fill_again())

    sim.run_process(fs.clean(max_segments=32))
    sim.run_process(fs.create("/c"))
    sim.run_process(fs.write("/c", 0, pattern(400 * KIB, seed=7)))
    sim.run_process(fs.sync())
    assert sim.run_process(fs.read("/c", 0, 400 * KIB)) == pattern(
        400 * KIB, seed=7)


def test_greedy_picks_emptiest_segment():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.write("/a", 0, pattern(256 * KIB, seed=8)))
    sim.run_process(fs.sync())
    # Punch holes: overwrite the first 64 KiB (first segment mostly dies).
    sim.run_process(fs.write("/a", 0, pattern(64 * KIB, seed=9)))
    sim.run_process(fs.sync())

    victims = pick_victims(fs, 1, CleanerPolicy.GREEDY)
    assert victims
    emptiest = min(
        (entry.live_bytes, seg) for seg, entry in enumerate(fs.usage)
        if entry.state == SegmentState.DIRTY)
    assert victims[0] == emptiest[1]


def test_cost_benefit_prefers_old_cold_segments():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/old"))
    sim.run_process(fs.write("/old", 0, pattern(64 * KIB, seed=10)))
    sim.run_process(fs.sync())
    old_seg_candidates = [seg for seg, entry in enumerate(fs.usage)
                          if entry.state == SegmentState.DIRTY]
    # Lots of newer activity.
    sim.run_process(fs.create("/new"))
    for index in range(8):
        sim.run_process(fs.write("/new", index * 32 * KIB,
                                 pattern(32 * KIB, seed=20 + index)))
        sim.run_process(fs.sync())
    # Kill most of the old segment's data and a bit of the new.
    sim.run_process(fs.write("/old", 0, pattern(48 * KIB, seed=30)))
    sim.run_process(fs.sync())

    victims = pick_victims(fs, 1, CleanerPolicy.COST_BENEFIT)
    assert victims
    assert victims[0] in old_seg_candidates


def test_clean_noop_when_nothing_dirty():
    sim, _device, fs = make_fs()
    before = fs.free_segments()
    reclaimed = sim.run_process(fs.clean(max_segments=4))
    # Only the segments that formatting itself dirtied are candidates;
    # they hold live data so nothing with zero benefit is forced.
    assert fs.free_segments() >= before
    assert isinstance(reclaimed, list)


def test_cleaner_counts_stat():
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/junk"))
    sim.run_process(fs.write("/junk", 0, pattern(128 * KIB, seed=11)))
    sim.run_process(fs.sync())
    sim.run_process(fs.unlink("/junk"))
    sim.run_process(fs.sync())
    reclaimed = sim.run_process(fs.clean(max_segments=4))
    assert fs.segments_cleaned == len(reclaimed)
    assert fs.statfs()["segments_cleaned"] == len(reclaimed)
