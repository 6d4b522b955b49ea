"""Unit tests for the busy-time monitor."""

import pytest

from repro.errors import SimulationError
from repro.sim import BusyMonitor, Simulator


def test_busy_monitor_tracks_utilization():
    sim = Simulator()
    mon = BusyMonitor(sim)

    def body():
        mon.enter()
        yield sim.timeout(3.0)
        mon.exit()
        yield sim.timeout(1.0)

    sim.run_process(body())
    assert mon.busy_time == pytest.approx(3.0)
    assert mon.utilization(4.0) == pytest.approx(0.75)


def test_busy_monitor_nesting():
    sim = Simulator()
    mon = BusyMonitor(sim)

    def body():
        mon.enter()
        yield sim.timeout(1.0)
        mon.enter()  # nested: should not double count
        yield sim.timeout(1.0)
        mon.exit()
        yield sim.timeout(1.0)
        mon.exit()

    sim.run_process(body())
    assert mon.busy_time == pytest.approx(3.0)


def test_busy_monitor_exit_without_enter():
    mon = BusyMonitor(Simulator())
    with pytest.raises(SimulationError):
        mon.exit()


def test_busy_monitor_counts_open_interval():
    sim = Simulator()
    mon = BusyMonitor(sim)

    def body():
        mon.enter()
        yield sim.timeout(2.0)

    sim.run_process(body())
    assert mon.utilization(2.0) == pytest.approx(1.0)


def test_busy_monitor_overfull_raises():
    # busy_time greater than the elapsed window means the intervals
    # overlap or exit() accounting went wrong; that is a bug, not a
    # 100%-utilization reading, so it must raise — never clamp.
    sim = Simulator()
    mon = BusyMonitor(sim)

    def body():
        mon.enter()
        yield sim.timeout(3.0)
        mon.exit()

    sim.run_process(body())
    with pytest.raises(SimulationError, match="busy"):
        mon.utilization(2.0)
    # Float noise just above 1.0 is tolerated and reported as 1.0.
    assert mon.utilization(3.0 * (1.0 - 1e-12)) == pytest.approx(1.0)
