"""Busy-time accounting for utilization reports.

:class:`BusyMonitor` is a thin shim over the per-simulator
:class:`repro.obs.MetricsRegistry` (``sim.metrics``): the busy time it
accumulates lives in a registry gauge and therefore appears in
``--metrics`` snapshots automatically.  Anonymous monitors get
deterministic registry components (``busy.1``, ``busy.2``...) so
snapshots stay identical across identical runs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.sim.core import Simulator

#: Relative slack for busy-time accounting checks: utilization may
#: exceed 1.0 by at most this much before it is treated as a bug.
UTILIZATION_TOLERANCE = 1e-9


class BusyMonitor:
    """Tracks how long a component spends busy, for utilization reports."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        component = name or sim.metrics.unique_component("busy")
        self._gauge = sim.metrics.gauge(component, "busy_time", unit="s")
        self._busy_since: Optional[float] = None
        self._depth = 0

    @property
    def busy_time(self) -> float:
        return self._gauge.value

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
            self._gauge.add(self.sim.now - self._busy_since)
            self._busy_since = None

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            raise SimulationError("elapsed must be positive")
        busy = self._gauge.value
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
