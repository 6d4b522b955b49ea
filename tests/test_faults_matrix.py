"""Fault matrix: the same fault plans replayed across RAID levels 1/3/5.

CI runs this file once per level (``FAULT_MATRIX_LEVEL=1|3|5``); with
the variable unset, a local run covers all three.  Each level must
survive a mid-stream disk death with every byte intact, heal a
transient burst invisibly, and scrub clean after repair + rebuild.
Every level rebuilds behind a frontier: reads racing a rebuild, and
reads after a bounded rebuild, return the written bytes, and the scrub
counts rows past a remaining frontier as degraded.  A replacement that
no rebuild has reached yet is untrusted on every row.
"""

import dataclasses
import os
import random

import pytest

from repro.faults import DiskDeath, FaultPlan, TransientFault, attach_array
from repro.hw import IBM_0661, DiskDrive
from repro.raid import (DirectDiskPath, Raid1Controller, Raid3Controller,
                        Raid5Controller)
from repro.sim import Simulator
from repro.analysis import scrub_array
from repro.testing import assert_parity_clean
from repro.units import KIB, MIB, SECTOR_SIZE

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
UNIT = 16 * KIB
SIZE = 512 * KIB

_LEVEL = os.environ.get("FAULT_MATRIX_LEVEL")
LEVELS = [int(_LEVEL)] if _LEVEL else [1, 3, 5]


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


def make_level(sim, level):
    ndisks = 4 if level == 1 else 5
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    if level == 1:
        return paths, Raid1Controller(sim, paths, UNIT)
    if level == 3:
        return paths, Raid3Controller(sim, paths)
    return paths, Raid5Controller(sim, paths, UNIT)


def _scrub_rows(ctrl):
    layout = ctrl.layout
    row_bytes = layout.data_units_per_row * layout.unit_sectors * SECTOR_SIZE
    return -(-SIZE // row_bytes) + 1


def _replaced(level, seed):
    """A written array whose disk 0 died and was replaced (blank)."""
    sim = Simulator()
    paths, ctrl = make_level(sim, level)
    base = pattern(SIZE, seed=seed)
    sim.run_process(ctrl.write(0, base))
    paths[0].disk.fail()
    paths[0].disk.repair()
    return sim, ctrl, base


@pytest.mark.parametrize("level", LEVELS)
def test_disk_death_mid_stream_then_rebuild(level):
    sim = Simulator()
    paths, ctrl = make_level(sim, level)
    base = pattern(SIZE, seed=level)
    sim.run_process(ctrl.write(0, base))

    start = sim.now
    assert sim.run_process(ctrl.read(0, SIZE)) == base
    elapsed = sim.now - start

    # d0 sees reads on every level (RAID 1's copy alternation skips
    # some drives entirely on a pure read stream).
    inj = attach_array(FaultPlan.of(
        DiskDeath(disk="d0", at_s=sim.now + elapsed / 2)), ctrl)

    def reader():
        for _ in range(4):
            data = yield from ctrl.read(0, SIZE)
            assert data == base

    sim.run_process(reader())
    assert paths[0].disk.failed
    assert ctrl.degraded_reads > 0
    assert inj.disk_deaths == 1

    paths[0].disk.repair()
    rows = _scrub_rows(ctrl)
    sim.run_process(ctrl.rebuild(0, max_rows=rows))
    assert_parity_clean(ctrl, max_rows=rows)
    assert sim.run_process(ctrl.read(0, SIZE)) == base


@pytest.mark.parametrize("level", LEVELS)
def test_transient_burst_is_invisible(level):
    sim = Simulator()
    _, ctrl = make_level(sim, level)
    base = pattern(SIZE, seed=10 + level)
    sim.run_process(ctrl.write(0, base))

    second = "d3" if level == 1 else "d2"
    inj = attach_array(FaultPlan.of(
        TransientFault(disk="d0", count=2),
        TransientFault(disk=second, count=1)), ctrl)

    assert sim.run_process(ctrl.read(0, SIZE)) == base
    assert sim.run_process(ctrl.read(0, SIZE)) == base
    assert ctrl.transient_retries == 3
    assert inj.transient_errors == 3
    assert ctrl.degraded_reads == 0
    assert_parity_clean(ctrl, max_rows=_scrub_rows(ctrl))


@pytest.mark.parametrize("level", LEVELS)
def test_replacement_is_untrusted_before_its_rebuild_starts(level):
    # Between repair() and rebuild() the replacement is blank: reads
    # and a scrub must go through redundancy, not trust its zeros.
    sim, ctrl, base = _replaced(level, seed=50 + level)
    assert sim.run_process(ctrl.read(0, SIZE)) == base
    report = scrub_array(ctrl, max_rows=_scrub_rows(ctrl))
    assert report.ok and report.rows_checked == 0
    sim.run_process(ctrl.rebuild(0))
    assert sim.run_process(ctrl.read(0, SIZE)) == base
    assert_parity_clean(ctrl)


@pytest.mark.parametrize("level", LEVELS)
def test_reads_racing_rebuild_return_written_bytes(level):
    sim, ctrl, base = _replaced(level, seed=20 + level)
    chunk = SIZE // 8
    results = []

    def reader():
        for index in range(16):
            offset = (index % 8) * chunk
            data = yield from ctrl.read(offset, chunk)
            results.append(data == base[offset:offset + chunk])

    rebuild = sim.process(ctrl.rebuild(0))
    sim.process(reader())
    sim.run()
    assert rebuild.processed
    assert len(results) == 16 and all(results)
    assert_parity_clean(ctrl)


@pytest.mark.parametrize("level", LEVELS)
def test_bounded_rebuild_keeps_frontier(level):
    sim, ctrl, base = _replaced(level, seed=30 + level)
    rows = _scrub_rows(ctrl) // 2
    sim.run_process(ctrl.rebuild(0, max_rows=rows))
    assert sim.run_process(ctrl.read(0, SIZE)) == base
    # A second bounded pass restarts at row 0 and stays correct too.
    sim.run_process(ctrl.rebuild(0, max_rows=rows // 2))
    assert sim.run_process(ctrl.read(0, SIZE)) == base


@pytest.mark.parametrize("level", LEVELS)
def test_scrub_counts_rows_past_frontier_as_degraded(level):
    sim, ctrl, _ = _replaced(level, seed=40 + level)
    scanned = _scrub_rows(ctrl)
    rows = scanned // 2
    sim.run_process(ctrl.rebuild(0, max_rows=rows))
    report = scrub_array(ctrl, max_rows=scanned)
    assert report.ok
    assert report.rows_checked == rows
    assert report.degraded_rows == list(range(rows, scanned))
