"""Tests for the RAID file client library (raid_open/read/write/close)."""

import random

import pytest

from repro.client import RaidFileClient
from repro.errors import ProtocolError
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import MIB


@pytest.fixture
def setup():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    client = RaidFileClient(sim, server)
    return sim, server, client


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


def test_open_write_read_close_roundtrip(setup):
    sim, _server, client = setup
    payload = pattern(1 * MIB, seed=1)

    def body():
        fd = yield from client.open("/data")
        yield from client.write(fd, 0, payload)
        data = yield from client.read(fd, 0, len(payload))
        yield from client.close(fd)
        return data

    assert sim.run_process(body()) == payload
    assert client.open_files == 0


def test_open_creates_missing_file(setup):
    sim, server, client = setup

    def body():
        fd = yield from client.open("/fresh")
        yield from client.close(fd)

    sim.run_process(body())
    assert sim.run_process(server.fs.exists("/fresh")) is True


def test_two_handles_independent(setup):
    sim, _server, client = setup

    def body():
        fd_a = yield from client.open("/a")
        fd_b = yield from client.open("/b")
        yield from client.write(fd_a, 0, b"A" * 8192)
        yield from client.write(fd_b, 0, b"B" * 8192)
        a = yield from client.read(fd_a, 0, 8192)
        b = yield from client.read(fd_b, 0, 8192)
        return a, b

    a, b = sim.run_process(body())
    assert a == b"A" * 8192
    assert b == b"B" * 8192
    assert client.open_files == 2


def test_closed_handle_rejected(setup):
    sim, _server, client = setup

    def body():
        fd = yield from client.open("/x")
        yield from client.close(fd)
        yield from client.read(fd, 0, 10)

    with pytest.raises(ProtocolError):
        sim.run_process(body())


def test_bad_fd_rejected(setup):
    sim, _server, client = setup

    def body():
        yield from client.read(99, 0, 10)

    with pytest.raises(ProtocolError):
        sim.run_process(body())


def test_transfer_rate_is_client_limited(setup):
    """A single SPARCstation client lands near the paper's ~3 MB/s."""
    sim, _server, client = setup
    payload = pattern(2 * MIB, seed=2)

    def body():
        fd = yield from client.open("/rate")
        start = sim.now
        yield from client.write(fd, 0, payload)
        write_time = sim.now - start
        start = sim.now
        yield from client.read(fd, 0, len(payload))
        read_time = sim.now - start
        return write_time, read_time

    write_time, read_time = sim.run_process(body())
    write_rate = len(payload) / 1e6 / write_time
    read_rate = len(payload) / 1e6 / read_time
    assert 2.0 < write_rate < 4.5
    assert 2.0 < read_rate < 4.5
