"""Fault-plan injection tests: deaths, transients, latents, stalls, crashes.

Every fault here arrives through a declarative :class:`FaultPlan` pulled
by the hardware hooks — not through manual ``fail()`` calls — so these
tests exercise the same machinery the experiments and the fault matrix
replay.
"""

import dataclasses
import random

import pytest

from repro.errors import CrashPoint
from repro.faults import (DiskDeath, FaultInjector, FaultPlan, HostCrash,
                          LatentSectorError, LinkStall, TransientFault,
                          attach_array, attach_server, restore_media)
from repro.hw import IBM_0661, DiskDrive
from repro.raid import DirectDiskPath, Raid5Controller
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.testing import MemoryDevice, assert_parity_clean
from repro.units import KIB, MIB, MS

SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=4 * MIB)
UNIT = 16 * KIB


def make_array(sim, ndisks=6):
    paths = [DirectDiskPath(DiskDrive(sim, SMALL_DISK, name=f"d{i}"))
             for i in range(ndisks)]
    return paths, Raid5Controller(sim, paths, UNIT)


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


# ---------------------------------------------------------------------------
# whole-disk death
# ---------------------------------------------------------------------------

def test_disk_death_via_plan_degrades_but_serves_all_bytes():
    sim = Simulator()
    paths, ctrl = make_array(sim)
    base = pattern(40 * UNIT, seed=3)
    sim.run_process(ctrl.write(0, base))

    inj = attach_array(
        FaultPlan.of(DiskDeath(disk="d2", at_s=sim.now + 0.01)), ctrl)

    def reader():
        for _ in range(6):
            data = yield from ctrl.read(0, 40 * UNIT)
            assert data == base

    sim.run_process(reader())
    assert paths[2].disk.failed
    assert ctrl.degraded_reads > 0
    assert inj.disk_deaths == 1


# ---------------------------------------------------------------------------
# transient SCSI errors heal invisibly under the one retry loop
# ---------------------------------------------------------------------------

def test_transient_faults_heal_with_no_user_visible_failure():
    sim = Simulator()
    _, ctrl = make_array(sim)
    base = pattern(40 * UNIT, seed=4)
    sim.run_process(ctrl.write(0, base))

    inj = attach_array(FaultPlan.of(
        TransientFault(disk="d1", count=2),
        TransientFault(disk="d4", count=1)), ctrl)

    data = sim.run_process(ctrl.read(0, 40 * UNIT))
    assert data == base
    assert ctrl.transient_retries == 3
    assert inj.transient_errors == 3
    # Retries healed in place: no reconstruction happened.
    assert ctrl.degraded_reads == 0


@pytest.mark.parametrize("count,retries,degraded", [(2, 2, 0), (4, 4, 1)])
def test_one_retry_loop_heals_transients_on_the_xbus_path(count, retries,
                                                          degraded):
    # A Raid2Server disk op crosses the XBUS port and a Cougar; the
    # RAID layer's loop is the only retry on that path, so a burst as
    # long as its attempts falls through to a parity reconstruction.
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.paper_default(disk_spec=SMALL_DISK))
    raid = server.raid
    base = pattern(raid.stripe_unit_bytes, seed=12)
    sim.run_process(raid.write(0, base))

    victim = raid.paths[raid.layout.data_disk(0, 0)].disk
    attach_server(FaultPlan.of(TransientFault(disk=victim.name, count=count)),
                  server)

    assert sim.run_process(raid.read(0, len(base))) == base
    assert raid.transient_retries == retries
    assert raid.degraded_reads == degraded


# ---------------------------------------------------------------------------
# latent sector errors heal by reconstruct-and-rewrite
# ---------------------------------------------------------------------------

def test_latent_sector_error_is_healed_by_rewrite():
    sim = Simulator()
    paths, ctrl = make_array(sim)
    base = pattern(8 * UNIT, seed=5)
    sim.run_process(ctrl.write(0, base))

    victim = ctrl.layout.data_disk(0, 0)
    inj = attach_array(FaultPlan.of(
        LatentSectorError(disk=f"d{victim}", lba=0, nsectors=4)), ctrl)

    data = sim.run_process(ctrl.read(0, UNIT))
    assert data == base[:UNIT]
    assert ctrl.media_error_heals == 1
    assert inj.latent_sector_errors == 1
    assert paths[victim].disk.media_errors == 1
    # The rewrite cleared the bad extent: the next read is clean.
    healed_reads = ctrl.degraded_reads
    data = sim.run_process(ctrl.read(0, UNIT))
    assert data == base[:UNIT]
    assert ctrl.degraded_reads == healed_reads
    assert not paths[victim].disk._bad_sectors


# ---------------------------------------------------------------------------
# link stalls
# ---------------------------------------------------------------------------

def test_link_stall_delays_scsi_transfer():
    from repro.hw.scsi import ScsiString
    sim = Simulator()
    string = ScsiString(sim, name="s0")
    inj = FaultInjector(sim, FaultPlan.of(
        LinkStall(link="s0", at_s=0.0, duration_s=0.05)))
    inj.attach(links=[string])

    sim.run_process(string.transfer(64 * KIB))
    assert sim.now >= 0.05
    assert inj.link_stalls == 1
    assert inj.stall_seconds >= 0.05


# ---------------------------------------------------------------------------
# host crash: torn write, snapshot, restore
# ---------------------------------------------------------------------------

def test_host_crash_snapshot_restore_roundtrip():
    sim = Simulator()
    raw = MemoryDevice(sim, 1 * MIB)
    inj = FaultInjector(sim, FaultPlan.of(
        HostCrash(nth_write=3, torn_fraction=0.5))).attach(disks=[raw])
    payloads = [pattern(64 * KIB, seed=i) for i in range(4)]

    def workload():
        for index, payload in enumerate(payloads):
            yield from raw.write(index * 64 * KIB, payload)

    with pytest.raises(CrashPoint) as caught:
        sim.run_process(workload())
    assert inj.crashed
    assert "disk write #3 on memdev" in str(caught.value)
    assert inj.host_crashes == 1

    # Writes 1 and 2 landed whole; write 3 tore at the half-way sector.
    assert raw.peek(0, 64 * KIB) == payloads[0]
    assert raw.peek(64 * KIB, 64 * KIB) == payloads[1]
    torn = raw.peek(128 * KIB, 64 * KIB)
    assert torn[:32 * KIB] == payloads[2][:32 * KIB]
    assert torn[32 * KIB:] == bytes(32 * KIB)

    # The host stays down afterwards.
    with pytest.raises(CrashPoint):
        sim.run_process(raw.read(0, KIB))

    # Restoring the snapshot onto a fresh device reproduces the media.
    snapshot = caught.value.snapshot
    assert snapshot is not None
    sim2 = Simulator()
    raw2 = MemoryDevice(sim2, 1 * MIB)
    restore_media(snapshot, [raw2])
    assert raw2.peek(0, 1 * MIB) == raw.peek(0, 1 * MIB)


def test_host_crash_cuts_between_writes_landing_at_one_instant():
    """Two disk writes that finish together are still cut apart: the
    crash fires as the first lands, and the second never lands."""
    sim = Simulator()
    disks = [DiskDrive(sim, SMALL_DISK, name=f"d{i}") for i in range(2)]
    inj = FaultInjector(sim, FaultPlan.of(HostCrash(nth_write=1,
                                                    torn_fraction=1.0)))
    inj.attach(disks=disks)
    payload = pattern(8 * KIB, seed=3)

    def both():
        yield sim.fork([disk.write(0, payload) for disk in disks])

    with pytest.raises(CrashPoint) as caught:
        sim.run_process(both())
    # Running on lets d1's write reach its landing, which now raises;
    # new operations raise before they start.
    with pytest.raises(CrashPoint):
        sim.run_process(disks[1].read(0, 16))
    assert disks[0].peek(0, 16) == payload
    assert disks[1].peek(0, 16) == bytes(8 * KIB)

    fresh = [DiskDrive(Simulator(), SMALL_DISK, name=f"d{i}")
             for i in range(2)]
    restore_media(caught.value.snapshot, fresh)
    assert fresh[0].peek(0, 16) == payload
    assert fresh[1].peek(0, 16) == bytes(8 * KIB)


# ---------------------------------------------------------------------------
# end to end: the acceptance scenario on a full server
# ---------------------------------------------------------------------------

def test_server_survives_disk_death_and_rebuilds_clean():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.paper_default(
        disk_spec=dataclasses.replace(IBM_0661, capacity_bytes=8 * MIB)))
    raid = server.raid
    base = pattern(2 * MIB, seed=11)
    sim.run_process(raid.write(0, base))

    victim = raid.paths[7].disk
    inj = attach_server(FaultPlan.of(
        DiskDeath(disk=victim.name, at_s=sim.now + 5 * MS)), server)

    def reader():
        for start in range(0, 2 * MIB, 512 * KIB):
            data = yield from raid.read(start, 512 * KIB)
            assert data == base[start:start + 512 * KIB]

    sim.run_process(reader())
    assert victim.failed
    assert raid.degraded_reads > 0
    assert inj.disk_deaths == 1

    victim.repair()
    row_bytes = raid.layout.data_units_per_row * raid.stripe_unit_bytes
    rows = -(-2 * MIB // row_bytes) + 1
    sim.run_process(raid.rebuild(7, max_rows=rows))
    assert_parity_clean(raid, max_rows=rows)
    assert sim.run_process(raid.read(0, 2 * MIB)) == base
