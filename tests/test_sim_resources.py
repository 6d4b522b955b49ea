"""Unit tests for resources and bandwidth channels."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthChannel, Resource, Simulator
from repro.units import MB


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def user(tag, hold):
        yield res.acquire()
        try:
            order.append((tag, "in", sim.now))
            yield sim.timeout(hold)
        finally:
            res.release()
        order.append((tag, "out", sim.now))

    for tag in ("a", "b", "c"):
        sim.process(user(tag, 1.0))
    sim.run()
    entries = {tag: t for tag, phase, t in order if phase == "in"}
    assert entries["a"] == 0.0
    assert entries["b"] == 0.0
    assert entries["c"] == 1.0  # had to wait for a slot


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []

    def user(tag):
        yield res.acquire()
        granted.append(tag)
        yield sim.timeout(1.0)
        res.release()

    for tag in range(5):
        sim.process(user(tag))
    sim.run()
    assert granted == [0, 1, 2, 3, 4]


def test_resource_release_idle_rejected():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_bad_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_waiters_acquire_when_holder_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    acquired = []

    def holder():
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    def waiter():
        yield res.acquire()
        acquired.append(sim.now)
        res.release()

    sim.process(holder())
    sim.process(waiter())
    sim.process(waiter())
    sim.run(until=1.0)
    assert acquired == []
    sim.run()
    assert acquired == [10.0, 10.0]


# ---------------------------------------------------------------------------
# BandwidthChannel
# ---------------------------------------------------------------------------

def test_channel_transfer_time():
    sim = Simulator()
    chan = BandwidthChannel(sim, rate_mb_s=10.0)
    assert chan.transfer_time(10 * MB) == pytest.approx(1.0)


def test_channel_overhead_added():
    sim = Simulator()
    chan = BandwidthChannel(sim, rate_mb_s=10.0, per_transfer_overhead=0.5)
    assert chan.transfer_time(10 * MB) == pytest.approx(1.5)


def test_channel_serializes_transfers():
    sim = Simulator()
    chan = BandwidthChannel(sim, rate_mb_s=1.0)
    done = []

    def mover(tag):
        yield from chan.transfer(1 * MB)
        done.append((tag, sim.now))

    sim.process(mover("a"))
    sim.process(mover("b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_channel_accounting():
    sim = Simulator()
    chan = BandwidthChannel(sim, rate_mb_s=2.0)

    def mover():
        yield from chan.transfer(4 * MB)

    sim.process(mover())
    sim.run()
    assert chan.bytes_moved == 4 * MB
    assert chan.busy_time == pytest.approx(2.0)
    assert chan.utilization(4.0) == pytest.approx(0.5)


def test_channel_rejects_bad_rate():
    sim = Simulator()
    with pytest.raises(SimulationError):
        BandwidthChannel(sim, rate_mb_s=0.0)


def test_channel_rejects_negative_size():
    sim = Simulator()
    chan = BandwidthChannel(sim, rate_mb_s=1.0)
    with pytest.raises(SimulationError):
        chan.transfer_time(-1)
