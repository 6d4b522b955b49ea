"""Discrete-event simulation kernel.

This subpackage is a small, self-contained discrete-event simulator in
the style of SimPy: simulation activities are Python generators that
``yield`` events (timeouts, resource grants, other processes) and are
resumed when those events fire.

The rest of the package builds every hardware model (disks, buses, the
XBUS crossbar, networks, hosts) on top of these primitives.
"""

from repro.sim.core import AllOf, Event, Process, Simulator, Timeout
from repro.sim.channel import BandwidthChannel
from repro.sim.monitor import BusyMonitor
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "BandwidthChannel",
    "BusyMonitor",
    "Event",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
