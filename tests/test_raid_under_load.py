"""RAID behaviour under combined load: rebuild during traffic,
failures mid-request, multi-board independence."""

import dataclasses
import random

import pytest

from repro.errors import UnrecoverableArrayError
from repro.hw import IBM_0661, DiskDrive
from repro.raid import DirectDiskPath, Raid5Controller
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, MIB

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
UNIT = 16 * KIB


def make_array(sim, ndisks=6):
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    return paths, Raid5Controller(sim, paths, UNIT)


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


def test_rebuild_while_reads_continue():
    """Client reads proceed (degraded) while the rebuild runs; both
    finish with correct data and consistent parity."""
    sim = Simulator()
    paths, ctrl = make_array(sim)
    payload = pattern(40 * UNIT, seed=1)
    sim.run_process(ctrl.write(0, payload))

    paths[2].disk.fail()
    paths[2].disk.repair()  # blank replacement

    results = []

    def reader():
        for _ in range(6):
            data = yield from ctrl.read(0, 10 * UNIT)
            results.append(data)

    def rebuilder():
        yield from ctrl.rebuild(2, max_rows=8)

    sim.process(reader())
    sim.process(rebuilder())
    sim.run()

    assert all(r == payload[:10 * UNIT] for r in results)
    assert assert_parity_clean(ctrl, max_rows=8).rows_checked == 8
    data = sim.run_process(ctrl.read(0, len(payload)))
    assert data == payload


def test_writes_during_rebuild_land_correctly():
    sim = Simulator()
    paths, ctrl = make_array(sim)
    base = pattern(40 * UNIT, seed=2)
    sim.run_process(ctrl.write(0, base))
    paths[1].disk.fail()
    paths[1].disk.repair()

    update = pattern(5 * UNIT, seed=3)

    def writer():
        yield from ctrl.write(20 * UNIT, update)

    def rebuilder():
        yield from ctrl.rebuild(1, max_rows=8)

    sim.process(rebuilder())
    sim.process(writer())
    sim.run()

    expected = bytearray(base)
    expected[20 * UNIT:25 * UNIT] = update
    data = sim.run_process(ctrl.read(0, len(base)))
    assert data == bytes(expected)


def test_failure_mid_request_recovers_within_request():
    """A disk dying between a request's pieces still yields correct
    data (the affected piece falls back to reconstruction)."""
    sim = Simulator()
    paths, ctrl = make_array(sim)
    payload = pattern(30 * UNIT, seed=4)
    sim.run_process(ctrl.write(0, payload))

    def killer():
        yield sim.timeout(0.015)
        paths[3].disk.fail()

    def reader():
        data = yield from ctrl.read(0, len(payload))
        return data

    sim.process(killer())
    proc = sim.process(reader())
    sim.run()
    assert proc.value == payload


def test_second_failure_during_degraded_read_is_fatal():
    sim = Simulator()
    paths, ctrl = make_array(sim)
    sim.run_process(ctrl.write(0, pattern(30 * UNIT, seed=5)))
    paths[0].disk.fail()

    def killer():
        yield sim.timeout(0.01)
        paths[1].disk.fail()

    def reader():
        yield from ctrl.read(0, 30 * UNIT)

    sim.process(killer())
    sim.process(reader())
    with pytest.raises(UnrecoverableArrayError):
        sim.run()


def test_two_arrays_are_independent():
    """Traffic on one array never blocks or corrupts another (the
    multi-XBUS-board scaling premise)."""
    sim = Simulator()
    _paths_a, ctrl_a = make_array(sim)
    _paths_b, ctrl_b = make_array(sim)
    a = pattern(20 * UNIT, seed=6)
    b = pattern(20 * UNIT, seed=7)

    def worker(ctrl, payload):
        yield from ctrl.write(0, payload)
        data = yield from ctrl.read(0, len(payload))
        return data

    proc_a = sim.process(worker(ctrl_a, a))
    proc_b = sim.process(worker(ctrl_b, b))
    sim.run()
    assert proc_a.value == a
    assert proc_b.value == b


def test_many_small_concurrent_ops_keep_parity_consistent():
    sim = Simulator()
    _paths, ctrl = make_array(sim)
    rng = random.Random(8)
    nworkers = 8

    def worker(seed):
        local = random.Random(seed)
        for index in range(10):
            offset = local.randrange(0, 200) * 4096
            yield from ctrl.write(offset, bytes([seed]) * 4096)

    for seed in range(nworkers):
        sim.process(worker(seed))
    sim.run()
    assert assert_parity_clean(ctrl).rows_checked == ctrl.layout.rows


def test_rebuild_race_with_fault_plan_replays_identically():
    # Writes racing the rebuild frontier while an armed transient plan
    # fires: the whole tangle must replay bit-identically under the
    # determinism trace, land the written bytes, and scrub clean.
    from repro.faults import FaultPlan, TransientFault, attach_array
    from tests.test_sim_determinism import _traced

    def run():
        sim = Simulator()
        paths, ctrl = make_array(sim)
        base = pattern(40 * UNIT, seed=9)
        sim.run_process(ctrl.write(0, base))
        paths[1].disk.fail()
        paths[1].disk.repair()
        attach_array(FaultPlan.of(TransientFault(disk="d3", count=2)), ctrl)
        update = pattern(5 * UNIT, seed=10)

        def writer():
            yield from ctrl.write(20 * UNIT, update)

        rebuild_proc = sim.process(ctrl.rebuild(1, max_rows=12))
        sim.process(writer())
        sim.run()
        assert rebuild_proc.processed
        assert assert_parity_clean(ctrl, max_rows=12).rows_checked == 12
        data = sim.run_process(ctrl.read(0, 40 * UNIT))
        return data

    result_a, trace_a = _traced(run)
    result_b, trace_b = _traced(run)
    assert trace_a == trace_b
    expected = bytearray(pattern(40 * UNIT, seed=9))
    expected[20 * UNIT:25 * UNIT] = pattern(5 * UNIT, seed=10)
    assert result_a == bytes(expected)
    assert result_b == bytes(expected)
