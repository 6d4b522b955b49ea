"""Busy-time accounting for utilization checks.

:class:`BusyMonitor` accumulates the time a component spends busy in
its plain ``busy_time`` attribute, which it exposes to the
per-simulator :class:`repro.obs.MetricsRegistry` (``sim.metrics``)
under its name, so the busy time appears in ``--metrics`` snapshots.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Simulator

#: Relative slack for busy-time accounting checks: utilization may
#: exceed 1.0 by at most this much before it is treated as a bug.
UTILIZATION_TOLERANCE = 1e-9


class BusyMonitor:
    """Tracks how long a component spends busy."""

    def __init__(self, sim: Simulator, name: str = "busy"):
        self.sim = sim
        self.name = name
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None
        self._depth = 0
        sim.metrics.expose(name, self, {"busy_time": "s"})

    def enter(self) -> None:
        if self._depth == 0:
            self._busy_since = self.sim.now
        self._depth += 1

    def exit(self) -> None:
        if self._depth <= 0:
            raise SimulationError(f"BusyMonitor {self.name!r} exit without enter")
        self._depth -= 1
        if self._depth == 0:
            assert self._busy_since is not None
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise SimulationError("elapsed must be positive")
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        raw = busy / elapsed
        if raw > 1.0 + UTILIZATION_TOLERANCE:
            # A component cannot be busy for longer than the window:
            # this is an enter/exit accounting bug, not a measurement,
            # and silently clamping it would hide the corruption.
            raise SimulationError(
                f"BusyMonitor {self.name!r} utilization {raw:.9f} exceeds "
                "1.0: busy intervals overlap or exit() accounting is wrong")
        return min(1.0, raw)
