"""Full-stack end-to-end scenario: a life in the day of the prototype.

One continuous story through every layer: format, a mixed client
population (HIPPI library clients + Ethernet clients), a disk failure
with degraded service, a rebuild, the cleaner reclaiming space, a
power failure, and a roll-forward remount — with byte-exact
verification at each stage.
"""

import random

import pytest

from repro.analysis import scrub_array
from repro.client import RaidFileClient
from repro.lfs import LogStructuredFS
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MIB


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


@pytest.fixture(scope="module")
def story():
    """Run the whole scenario once; individual tests assert stages."""
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    record = {"sim": sim, "server": server}

    # --- stage 1: mixed client population writes data ---
    hippi_client = RaidFileClient(sim, server, name="super")
    dataset = pattern(3 * MIB, seed=1)

    def hippi_session():
        fd = yield from hippi_client.open("/bulk.dat")
        yield from hippi_client.write(fd, 0, dataset)
        data = yield from hippi_client.read(fd, 0, len(dataset))
        yield from hippi_client.close(fd)
        return data

    record["hippi_roundtrip"] = sim.run_process(hippi_session())
    record["dataset"] = dataset

    small_files = {}

    def ethernet_population():
        yield from server.fs.mkdir("/mail")
        for index in range(12):
            path = f"/mail/msg{index:02d}"
            payload = pattern(6 * KIB, seed=50 + index)
            small_files[path] = payload
            yield from server.fs.create(path)
            yield from server.ethernet_write(path, 0, payload)

    sim.run_process(ethernet_population())
    record["small_files"] = small_files
    sim.run_process(server.fs.checkpoint())

    # --- stage 2: disk failure, degraded service continues ---
    victim = server.raid.paths[4].disk
    victim.fail()
    record["degraded_read"] = sim.run_process(
        server.fs.read("/bulk.dat", 0, len(dataset)))
    record["degraded_reconstructions"] = server.raid.degraded_reads

    # --- stage 3: replace and rebuild while traffic continues ---
    victim.repair()
    rebuild = sim.process(server.raid.rebuild(4, max_rows=48))
    during = sim.run_process(server.fs.read("/bulk.dat", 1 * MIB, 512 * KIB))
    record["read_during_rebuild"] = during
    sim.run()
    record["rebuild_done"] = rebuild.processed
    record["scrub_after_rebuild"] = scrub_array(server.raid, max_rows=48)

    # --- stage 4: churn + cleaning ---
    def churn():
        for index in range(8):
            path = f"/tmp{index}"
            yield from server.fs.create(path)
            yield from server.fs.write(path, 0, pattern(256 * KIB,
                                                        seed=90 + index))
        yield from server.fs.sync()
        for index in range(8):
            yield from server.fs.unlink(f"/tmp{index}")
        yield from server.fs.sync()

    sim.run_process(churn())
    record["reclaimed"] = sim.run_process(server.fs.clean(max_segments=6))

    # --- stage 5: power failure and remount ---
    sim.run_process(server.fs.write("/bulk.dat", 0, pattern(64 * KIB,
                                                            seed=99)))
    sim.run_process(server.fs.sync())
    server.fs.crash()
    fs2 = LogStructuredFS(sim, server.raid, spec=server.config.lfs,
                          max_inodes=server.config.max_inodes,
                          host=server.host)
    sim.run_process(fs2.mount())
    record["fs2"] = fs2
    return record


def test_hippi_client_roundtrip(story):
    assert story["hippi_roundtrip"] == story["dataset"]


def test_degraded_reads_correct(story):
    assert story["degraded_read"] == story["dataset"]
    assert story["degraded_reconstructions"] > 0


def test_service_during_rebuild(story):
    assert story["read_during_rebuild"] == \
        story["dataset"][1 * MIB:1 * MIB + 512 * KIB]
    assert story["rebuild_done"]
    assert story["scrub_after_rebuild"].ok
    assert story["scrub_after_rebuild"].rows_checked == 48


def test_cleaner_reclaimed_churn(story):
    assert len(story["reclaimed"]) >= 1


def test_remount_recovers_everything(story):
    sim, fs2 = story["sim"], story["fs2"]
    expected = bytearray(story["dataset"])
    expected[:64 * KIB] = pattern(64 * KIB, seed=99)
    assert sim.run_process(fs2.read("/bulk.dat", 0, len(expected))) == \
        bytes(expected)
    for path, payload in story["small_files"].items():
        assert sim.run_process(fs2.read(path, 0, len(payload))) == payload
    # Deleted churn files stayed deleted.
    assert sim.run_process(fs2.exists("/tmp0")) is False
