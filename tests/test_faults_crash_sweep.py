"""Crash-consistency sweep: crash at every disk-write boundary.

A scripted LFS workload is first run with an *empty* plan to count the
disk writes it lands; then, for every ``n`` up to that count, a fresh
stack is built and crashed as write ``n`` lands via :class:`HostCrash`.
The crash is counted where bytes become durable (``DiskDrive`` or
``MemoryDevice``), so on an array it can fall between the data and
parity writes of one row.  The media snapshot carried by the
:class:`CrashPoint` is laid onto another fresh stack and remounted (LFS
roll-forward); every byte synced before the cut must read back, and
the offline fsck must come back clean.

On the RAID stacks every cut is also scrubbed.  Nothing resyncs parity
on mount yet, so a cut between the writes of one row leaves a row whose
redundancy disagrees with its data: the RAID write hole.  The sweeps pin
the exact set of such cuts, so a cut outside the set must scrub clean
and the set cannot grow or shrink unnoticed.
"""

import dataclasses
import random
from typing import NamedTuple, Optional

import pytest

from repro.errors import ConsistencyError, CrashPoint
from repro.faults import FaultInjector, FaultPlan, HostCrash, restore_media
from repro.hw import IBM_0661, DiskDrive
from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.raid import DirectDiskPath, Raid1Controller, Raid5Controller
from repro.sim import Simulator
from repro.testing import (MemoryDevice, assert_fs_consistent,
                           assert_parity_clean)
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)
SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
UNIT = 16 * KIB


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


class Stack(NamedTuple):
    device: object
    stores: list                  # what the injector attaches to
    controller: Optional[object]  # the array to scrub, if any
    align: Optional[int]          # LFS segment alignment


def _mem_stack(sim):
    device = MemoryDevice(sim, 8 * MIB)
    return Stack(device, [device], None, None)


def _array_stack(sim, controller_type, ndisks):
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    ctrl = controller_type(sim, paths, UNIT)
    row_bytes = ctrl.layout.data_units_per_row * ctrl.stripe_unit_bytes
    return Stack(ctrl, [path.disk for path in paths], ctrl, row_bytes)


def _raid5_stack(sim):
    return _array_stack(sim, Raid5Controller, 5)


def _raid1_stack(sim):
    return _array_stack(sim, Raid1Controller, 4)


def _workload(fs, synced):
    """Appends ``(path, offset, payload)`` to ``synced`` once a sync
    covering the write has returned."""
    yield from fs.create("/a")
    for index in range(4):
        payload = pattern(24 * KIB, seed=30 + index)
        yield from fs.write("/a", index * 24 * KIB, payload)
        yield from fs.sync()
        synced.append(("/a", index * 24 * KIB, payload))
    yield from fs.create("/b")
    payload = pattern(40 * KIB, seed=50)
    yield from fs.write("/b", 0, payload)
    yield from fs.sync()
    synced.append(("/b", 0, payload))
    yield from fs.checkpoint()


def _make_fs(sim, stack):
    return LogStructuredFS(sim, stack.device, spec=FAST_SPEC, max_inodes=64,
                           align_segments_to=stack.align)


def _run_until_crash(make_stack, plan):
    """Format, arm ``plan`` on every store, mount, run the workload.

    Returns ``(writes landed after formatting, synced, crash-or-None)``.
    """
    sim = Simulator()
    stack = make_stack(sim)
    sim.run_process(_make_fs(sim, stack).format())
    formatted = sum(store.writes for store in stack.stores)

    FaultInjector(sim, plan).attach(disks=stack.stores)
    fs = _make_fs(sim, stack)
    synced = []
    crash = None
    try:
        sim.run_process(fs.mount())
        sim.run_process(_workload(fs, synced))
    except CrashPoint as caught:
        crash = caught
    landed = sum(store.writes for store in stack.stores) - formatted
    return landed, synced, crash


def _recover(make_stack, snapshot):
    """Fresh stack + snapshot + remount; returns (sim, fs, stack)."""
    sim = Simulator()
    stack = make_stack(sim)
    restore_media(snapshot, stack.stores)
    fs = _make_fs(sim, stack)
    sim.run_process(fs.mount())
    return sim, fs, stack


def _sweep(make_stack, torn_fraction):
    """Crash at every landed write; returns ``(cuts, the cuts whose
    array scrubbed with mismatched rows)``."""
    total, _synced, crash = _run_until_crash(make_stack, FaultPlan())
    assert crash is None
    assert total >= 6, f"workload too small to sweep ({total} writes)"

    mismatched = set()
    for nth in range(1, total + 1):
        plan = FaultPlan.of(HostCrash(nth_write=nth,
                                      torn_fraction=torn_fraction))
        _landed, synced, crash = _run_until_crash(make_stack, plan)
        assert crash is not None, f"crash #{nth} never fired"
        assert crash.snapshot is not None

        sim, fs, stack = _recover(make_stack, crash.snapshot)
        for path, offset, payload in synced:
            got = sim.run_process(fs.read(path, offset, len(payload)))
            assert got == payload, f"cut {nth}: synced {path} lost"
        if stack.controller is not None:
            try:
                assert_parity_clean(stack.controller)
            except ConsistencyError:
                mismatched.add(nth)
        assert_fs_consistent(fs)
    return total, mismatched


def test_crash_at_every_write_boundary_memory_device():
    _sweep(_mem_stack, torn_fraction=0.0)


def test_crash_with_torn_writes_memory_device():
    _sweep(_mem_stack, torn_fraction=0.5)


# The write hole, cut by cut.  With whole writes, a row is mismatched
# after a cut between its data and parity writes (RAID 5) or between
# its two copies (RAID 1: every even cut).  A torn write leaves its row
# mismatched too, except where the part that did not land already held
# the bytes the write would have put there.
RAID5_WHOLE_HOLE = {2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21,
                    22, 23, 25, 26, 28}
RAID1_TORN_CLEAN = {24, 34, 36, 38}


def test_crash_at_every_write_boundary_raid5():
    total, mismatched = _sweep(_raid5_stack, torn_fraction=0.0)
    assert total == 28
    assert mismatched == RAID5_WHOLE_HOLE


def test_crash_with_torn_writes_raid5():
    total, mismatched = _sweep(_raid5_stack, torn_fraction=0.5)
    assert total == 28
    assert mismatched == set(range(1, 29))


def test_crash_at_every_write_boundary_raid1():
    total, mismatched = _sweep(_raid1_stack, torn_fraction=0.0)
    assert total == 38
    assert mismatched == set(range(2, 39, 2))


def test_crash_with_torn_writes_raid1():
    total, mismatched = _sweep(_raid1_stack, torn_fraction=0.5)
    assert total == 38
    assert mismatched == set(range(1, 39)) - RAID1_TORN_CLEAN


@pytest.mark.xfail(strict=True, reason=(
    "RAID write hole: nothing resyncs the row a crash tore, so losing "
    "an untouched disk of that row reconstructs wrong bytes"))
def test_synced_file_survives_crash_then_disk_loss_raid5():
    """Sync ``/a``; crash once ``/b``'s first disk write has landed
    (its row's parity has not); fail disk 0, which ``/b`` never wrote;
    ``/a`` must still read back."""
    sim = Simulator()
    stack = _raid5_stack(sim)
    sim.run_process(_make_fs(sim, stack).format())
    fs = _make_fs(sim, stack)
    sim.run_process(fs.mount())
    payload = pattern(24 * KIB, seed=1)
    sim.run_process(fs.create("/a"))
    sim.run_process(fs.write("/a", 0, payload))
    sim.run_process(fs.sync())

    FaultInjector(sim, FaultPlan.of(
        HostCrash(nth_write=1, torn_fraction=1.0))).attach(
            disks=stack.stores)

    def rounds():
        yield from fs.create("/b")
        for index in range(3):
            yield from fs.write("/b", index * 8 * KIB,
                                pattern(8 * KIB, seed=2 + index))
            yield from fs.sync()

    with pytest.raises(CrashPoint) as crash:
        sim.run_process(rounds())

    sim = Simulator()
    stack = _raid5_stack(sim)
    restore_media(crash.value.snapshot, stack.stores)
    stack.stores[0].fail()
    fs = _make_fs(sim, stack)
    sim.run_process(fs.mount())
    assert sim.run_process(fs.read("/a", 0, len(payload))) == payload
