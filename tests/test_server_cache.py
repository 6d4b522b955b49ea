"""Host file cache on the standard (Ethernet) path: hits and coherence."""

import random

import pytest

from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB


@pytest.fixture
def setup():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    payload = random.Random(4).randbytes(256 * KIB)

    def body():
        yield from server.fs.create("/file")
        yield from server.fs.write("/file", 0, payload)
        yield from server.fs.sync()

    sim.run_process(body())
    return sim, server, payload


def test_repeat_read_hits_host_cache(setup):
    sim, server, payload = setup
    start = sim.now
    first = sim.run_process(server.ethernet_read("/file", 0, 64 * KIB))
    cold = sim.now - start
    start = sim.now
    second = sim.run_process(server.ethernet_read("/file", 0, 64 * KIB))
    warm = sim.now - start
    assert first == second == payload[:64 * KIB]
    assert server.host_cache.hits == 1
    # The warm read skips the array and control port; only the
    # Ethernet leg remains, so it is measurably faster.
    assert warm < 0.9 * cold


def test_cache_hit_skips_array_io(setup):
    sim, server, _payload = setup
    sim.run_process(server.ethernet_read("/file", 0, 32 * KIB))
    reads_before = sum(d.reads for d in server.board.disks)
    sim.run_process(server.ethernet_read("/file", 0, 32 * KIB))
    assert sum(d.reads for d in server.board.disks) == reads_before


def test_write_invalidates_cached_ranges(setup):
    sim, server, _payload = setup
    sim.run_process(server.ethernet_read("/file", 0, 32 * KIB))
    assert len(server.host_cache) == 1
    sim.run_process(server.ethernet_write("/file", 0, b"\xff" * 4096))
    assert len(server.host_cache) == 0
    data = sim.run_process(server.ethernet_read("/file", 0, 4096))
    assert data == b"\xff" * 4096


def test_write_to_other_file_keeps_cache(setup):
    sim, server, _payload = setup
    sim.run_process(server.ethernet_read("/file", 0, 32 * KIB))

    def body():
        yield from server.fs.create("/other")
        yield from server.ethernet_write("/other", 0, b"x" * 4096)

    sim.run_process(body())
    assert len(server.host_cache) == 1


def test_cache_distinguishes_ranges(setup):
    sim, server, payload = setup
    a = sim.run_process(server.ethernet_read("/file", 0, 16 * KIB))
    b = sim.run_process(server.ethernet_read("/file", 16 * KIB, 16 * KIB))
    assert a == payload[:16 * KIB]
    assert b == payload[16 * KIB:32 * KIB]
    assert len(server.host_cache) == 2
