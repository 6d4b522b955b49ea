"""The fault injector: the pull-side runtime of a :class:`FaultPlan`.

Components carry a ``faults`` attribute (``None`` by default).  When an
injector is attached, the hooks in :class:`~repro.hw.disk.DiskDrive`,
:class:`~repro.hw.scsi.ScsiString`, :class:`~repro.hw.vme.VmePort` and
:class:`~repro.hw.hippi.HippiPort` consult it at each operation:

* :meth:`FaultInjector.on_disk_op` applies due disk events (death,
  latent sector installation) and raises
  :class:`~repro.errors.TransientDiskError` for due transient faults;
* :meth:`FaultInjector.stall_delay` returns how long a link transfer
  starting *now* must wait out a stall window (0.0 when none);
* :meth:`FaultInjector.on_landing` drives the
  :class:`~repro.faults.plan.HostCrash` countdown as each disk write
  lands, in landing order.  It is the one crash hook: stores consult
  it only while :attr:`FaultInjector.crash_armed` is set.

A :class:`~repro.testing.MemoryDevice` carries the same ``faults``
attribute and calls the same hooks, so it is attached like a disk.

The injector never schedules simulation events itself — consult-and-
return keeps an armed plan deterministic and an empty plan invisible.
Fault activity is counted in the injector's plain attributes
(``disk_deaths``, ``transient_errors``...), which the simulator's
metrics registry lists under the ``faults`` component.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.errors import CrashPoint, TransientDiskError
from repro.faults.crash import snapshot_media
from repro.faults.plan import (DiskDeath, FaultPlan, HostCrash,
                               LatentSectorError, LinkStall, TransientFault)
from repro.sim import Simulator
from repro.units import SECTOR_SIZE


class _TransientState:
    """Mutable countdown for one :class:`TransientFault`."""

    __slots__ = ("event", "remaining")

    def __init__(self, event: TransientFault):
        self.event = event
        self.remaining = event.count


class FaultInjector:
    """Executes a plan against the components it is attached to."""

    def __init__(self, sim: Simulator, plan: Optional[FaultPlan] = None,
                 component: str = "faults"):
        self.sim = sim
        self.plan = plan if plan is not None else FaultPlan()
        self.component = component

        self._deaths: dict[str, DiskDeath] = {}
        for event in self.plan.select(DiskDeath):
            self._deaths[event.disk] = event
        self._transients: dict[str, list[_TransientState]] = {}
        for event in self.plan.select(TransientFault):
            self._transients.setdefault(event.disk, []).append(
                _TransientState(event))
        self._latents: dict[str, list[LatentSectorError]] = {}
        for event in self.plan.select(LatentSectorError):
            self._latents.setdefault(event.disk, []).append(event)
        self._stalls: dict[str, list[LinkStall]] = {}
        for event in self.plan.select(LinkStall):
            self._stalls.setdefault(event.link, []).append(event)
        crashes = self.plan.select(HostCrash)
        self._crash: Optional[HostCrash] = crashes[0] if crashes else None
        #: Whether stores must report each landing write to
        #: :meth:`on_landing`: only a plan with a HostCrash needs it.
        self.crash_armed = self._crash is not None
        self.crashed = False
        self._landed = 0
        #: Attached stores, snapshotted when the host crashes.  Weak:
        #: each store points back here, and a strong cycle would keep a
        #: dropped stack's media alive until the cyclic collector runs.
        self._stores: weakref.WeakSet = weakref.WeakSet()

        self.disk_deaths = 0
        self.transient_errors = 0
        self.latent_sector_errors = 0
        self.link_stalls = 0
        self.stall_seconds = 0.0
        self.host_crashes = 0
        sim.metrics.expose(component, self, {
            "disk_deaths": "", "transient_errors": "",
            "latent_sector_errors": "", "link_stalls": "",
            "stall_seconds": "s", "host_crashes": ""})

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, *, disks=(), links=()) -> "FaultInjector":
        """Point components' ``faults`` hooks at this injector.

        ``disks`` are the stores (:class:`~repro.hw.DiskDrive` or
        :class:`~repro.testing.MemoryDevice`) a host crash snapshots.
        """
        for disk in disks:
            disk.faults = self
            self._stores.add(disk)
        for link in links:
            link.faults = self
        return self

    # ------------------------------------------------------------------
    # hooks (called from the hardware layer)
    # ------------------------------------------------------------------
    def on_disk_op(self, disk, kind: str) -> None:
        """Apply due events for one disk operation; may raise.

        Called by :class:`~repro.hw.disk.DiskDrive` at the start of
        every timed ``read``/``write`` (after the command slot is
        acquired, so injected failures observe real service order).
        After a host crash it is shadowed by :meth:`_host_down`.
        """
        now = self.sim.now
        name = disk.name
        death = self._deaths.get(name)
        if death is not None and now >= death.at_s:
            del self._deaths[name]
            disk.fail()
            self.disk_deaths += 1
        pending = self._latents.get(name)
        if pending:
            due = [event for event in pending if now >= event.at_s]
            for event in due:
                pending.remove(event)
                disk.mark_bad(event.lba, event.nsectors)
                self.latent_sector_errors += 1
        transients = self._transients.get(name)
        if transients:
            for state in transients:
                if state.remaining > 0 and now >= state.event.at_s:
                    state.remaining -= 1
                    self.transient_errors += 1
                    raise TransientDiskError(name, kind)

    def stall_delay(self, link_name: str) -> float:
        """Seconds a transfer starting now must wait out stall windows."""
        stalls = self._stalls.get(link_name)
        if not stalls:
            return 0.0
        now = self.sim.now
        delay = 0.0
        for event in stalls:
            if event.at_s <= now < event.at_s + event.duration_s:
                delay = max(delay, event.at_s + event.duration_s - now)
        if delay > 0.0:
            self.link_stalls += 1
            self.stall_seconds += delay
        return delay

    def on_landing(self, store, address: int, data) -> None:
        """Count one write as it lands on ``store``; may crash the host.

        Called by a store while :attr:`crash_armed` is set, just before
        ``data`` becomes durable at ``address`` (an LBA of a
        :class:`~repro.hw.DiskDrive`, a byte offset of a
        :class:`~repro.testing.MemoryDevice`).  On the plan's
        ``nth_write``-th landing at or after its ``at_s``, the write's
        sector-rounded ``torn_fraction`` prefix lands through the
        store's ``poke``, every attached store is snapshotted, and
        :class:`~repro.errors.CrashPoint` is raised.  From then on every
        landing and every new operation raises ``CrashPoint``.
        """
        if self.crashed:
            self._host_down(store)
        event = self._crash
        if self.sim.now < event.at_s:
            return
        self._landed += 1
        if self._landed < event.nth_write:
            return
        self.crashed = True
        # Shadow the per-operation hook, so an uncrashed host pays
        # nothing for the host-down check.
        self.on_disk_op = self._host_down
        self.host_crashes += 1
        nbytes = len(data)
        torn = int(nbytes * event.torn_fraction)
        torn = min(max(torn - torn % SECTOR_SIZE, 0), nbytes)
        if torn:
            store.poke(address, data[:torn])
        raise CrashPoint(
            f"host crash during disk write #{self._landed} on {store.name} "
            f"({torn}/{nbytes} bytes landed)",
            snapshot=snapshot_media(list(self._stores)), at_s=self.sim.now)

    def _host_down(self, store, kind: str = "write") -> None:
        raise CrashPoint(f"host is down ({kind} on {store.name})",
                         at_s=self.sim.now)


# ----------------------------------------------------------------------
# arming helpers
# ----------------------------------------------------------------------
def _as_injector(sim: Simulator, plan_or_injector) -> FaultInjector:
    if isinstance(plan_or_injector, FaultInjector):
        return plan_or_injector
    return FaultInjector(sim, plan_or_injector)


def attach_array(plan_or_injector, controller) -> FaultInjector:
    """Arm a plan on a bare RAID controller (``DirectDiskPath`` arrays)."""
    injector = _as_injector(controller.sim, plan_or_injector)
    injector.attach(disks=[path.disk for path in controller.paths])
    return injector


def attach_server(plan_or_injector, server) -> FaultInjector:
    """Arm a plan on every disk, string and network port of a server."""
    injector = _as_injector(server.sim, plan_or_injector)
    for board in server.boards:
        for cougar in board.cougars:
            for string in cougar.strings:
                injector.attach(links=[string], disks=string.disks)
        injector.attach(links=board.data_ports)
        injector.attach(links=[board.control_port, board.hippi_source,
                               board.hippi_dest])
    return injector
