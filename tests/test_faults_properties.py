"""Property tests: random faults and rebuilds against RAID 1, 3 and 5.

Hypothesis draws a random workload (aligned reads/writes over a fixed
region) and either one random fault event (disk death, transient
burst, or latent sector error; RAID 5 and 1) or a replaced disk whose
rebuild races the workload (all three levels).  Whatever it picks,
every read must return the bytes most recently written, and after
repairing and rebuilding any dead disk the redundancy must scrub
clean.  Like the fault matrix, the file narrows itself to one level
when ``FAULT_MATRIX_LEVEL`` is set.
"""

import dataclasses
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (DiskDeath, FaultPlan, LatentSectorError,
                          TransientFault, attach_array)
from repro.hw import IBM_0661, DiskDrive
from repro.raid import (DirectDiskPath, Raid1Controller, Raid3Controller,
                        Raid5Controller)
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, MIB, SECTOR_SIZE

_LEVEL = os.environ.get("FAULT_MATRIX_LEVEL")
LEVELS = [int(_LEVEL)] if _LEVEL else [1, 3, 5]

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=2 * MIB)
UNIT = 8 * KIB
#: All I/O stays inside this region so rebuild + scrub stay cheap.
REGION = 256 * KIB

#: Sectors of one disk the written region can span (conservative bound
#: so latent errors land where reads will hit them).
REGION_DISK_SECTORS = REGION // SECTOR_SIZE // 2

OPS = st.lists(
    st.tuples(
        st.integers(0, REGION // SECTOR_SIZE - 1),   # offset (sectors)
        st.integers(1, 32),                          # length (sectors)
        st.booleans(),                               # write?
        st.integers(0, 2 ** 16),                     # payload seed
    ),
    min_size=1, max_size=10)


def _fault_strategy(disk_names):
    times = st.floats(0.0, 0.3, allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.builds(DiskDeath, disk=st.sampled_from(disk_names), at_s=times),
        # count stays below the retry policy's max_attempts (4) so
        # transients always heal.
        st.builds(TransientFault, disk=st.sampled_from(disk_names),
                  at_s=times, count=st.integers(1, 3)),
        st.builds(LatentSectorError, disk=st.sampled_from(disk_names),
                  lba=st.integers(0, REGION_DISK_SECTORS), at_s=times,
                  nsectors=st.integers(1, 8)),
    )


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


def _workload(ctrl, ops, shadow):
    """Process: run ``ops`` against ``ctrl``, checking reads against
    (and applying writes to) the ``shadow`` image."""
    for offset_s, length_s, is_write, seed in ops:
        offset = offset_s * SECTOR_SIZE
        nbytes = min(length_s * SECTOR_SIZE, REGION - offset)
        if nbytes <= 0:
            continue
        if is_write:
            payload = pattern(nbytes, seed=seed)
            yield from ctrl.write(offset, payload)
            shadow[offset:offset + nbytes] = payload
        else:
            data = yield from ctrl.read(offset, nbytes)
            assert data == bytes(shadow[offset:offset + nbytes])


def _exercise(sim, paths, ctrl, ops, fault, scrub_rows):
    base = pattern(REGION, seed=1)
    sim.run_process(ctrl.write(0, base))
    shadow = bytearray(base)

    attach_array(FaultPlan.of(fault), ctrl)

    sim.run_process(_workload(ctrl, ops, shadow))
    assert sim.run_process(ctrl.read(0, REGION)) == bytes(shadow)

    for index, path in enumerate(paths):
        if path.disk.failed:
            path.disk.repair()
            sim.run_process(ctrl.rebuild(index, max_rows=scrub_rows))
    assert_parity_clean(ctrl, max_rows=scrub_rows)
    assert sim.run_process(ctrl.read(0, REGION)) == bytes(shadow)


@pytest.mark.skipif(5 not in LEVELS, reason="FAULT_MATRIX_LEVEL excludes 5")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raid5_serves_written_bytes_under_any_single_fault(data):
    names = [f"d{i}" for i in range(5)]
    ops = data.draw(OPS)
    fault = data.draw(_fault_strategy(names))
    sim = Simulator()
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=name))
             for name in names]
    ctrl = Raid5Controller(sim, paths, UNIT)
    rows = REGION // (ctrl.layout.data_units_per_row * UNIT) + 2
    _exercise(sim, paths, ctrl, ops, fault, scrub_rows=rows)


@pytest.mark.skipif(1 not in LEVELS, reason="FAULT_MATRIX_LEVEL excludes 1")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_raid1_serves_written_bytes_under_any_single_fault(data):
    names = [f"d{i}" for i in range(4)]
    ops = data.draw(OPS)
    fault = data.draw(_fault_strategy(names))
    sim = Simulator()
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=name))
             for name in names]
    ctrl = Raid1Controller(sim, paths, UNIT)
    rows = REGION // (ctrl.layout.data_units_per_row * UNIT) + 2
    _exercise(sim, paths, ctrl, ops, fault, scrub_rows=rows)


def _make_level(sim, level):
    ndisks = 4 if level == 1 else 5
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    if level == 1:
        return paths, Raid1Controller(sim, paths, UNIT)
    if level == 3:
        return paths, Raid3Controller(sim, paths)
    return paths, Raid5Controller(sim, paths, UNIT)


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_workload_racing_rebuild_serves_written_bytes(level, data):
    ops = data.draw(OPS)
    sim = Simulator()
    paths, ctrl = _make_level(sim, level)
    layout = ctrl.layout
    region_rows = -(-REGION // (layout.data_units_per_row
                                * layout.stripe_unit_bytes))
    victim = data.draw(st.integers(0, len(paths) - 1))
    delay = data.draw(st.floats(0.0, 0.2, allow_nan=False,
                                allow_infinity=False))
    # A bounded rebuild stops mid-region and leaves its frontier there.
    max_rows = data.draw(st.sampled_from([None, region_rows // 2]))

    base = pattern(REGION, seed=1)
    sim.run_process(ctrl.write(0, base))
    shadow = bytearray(base)
    paths[victim].disk.fail()
    paths[victim].disk.repair()

    def client():
        yield sim.timeout(delay)
        yield from _workload(ctrl, ops, shadow)

    # The rebuild starts first: a replaced disk is blank, and only the
    # rebuild's frontier marks it untrusted.
    rebuild = sim.process(ctrl.rebuild(victim, max_rows=max_rows))
    stream = sim.process(client())
    sim.run()
    assert rebuild.processed and stream.processed
    assert sim.run_process(ctrl.read(0, REGION)) == bytes(shadow)
    assert_parity_clean(ctrl, max_rows=region_rows)
