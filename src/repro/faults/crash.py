"""Crash points: halt the host mid-write, snapshot the media, remount.

:class:`CrashableDevice` wraps any storage device (a
:class:`~repro.testing.MemoryDevice` or a RAID controller) handed to an
LFS.  Every write consults the fault injector's
:class:`~repro.faults.plan.HostCrash` countdown; when the crash point
arrives, the torn prefix of the in-flight write lands through the
normal timed path (so a RAID device keeps its parity consistent — the
tear happens at the device-write granularity, above the array's atomic
row update), the durable media is snapshotted, and
:class:`~repro.errors.CrashPoint` is raised carrying the snapshot.

A test then rebuilds a *fresh* simulator and device stack, calls
:func:`restore_media` to lay the snapshot back down, mounts, and lets
LFS roll-forward recovery do its work — exactly the sequence a real
power-fail test rig performs.

Snapshot/restore go through each store's own instant, untimed
``snapshot()``/``restore()`` (every :class:`~repro.hw.DiskDrive` of an
array, or a flat :class:`~repro.testing.MemoryDevice`), so the store
formats stay private to the devices.  This module is verification
machinery, deliberately outside the timed data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CrashPoint, HardwareError
from repro.faults.inject import FaultInjector


@dataclass
class MediaSnapshot:
    """Durable bytes of one device at an instant.

    Exactly one of ``disks`` (per-drive store snapshots, for RAID
    arrays) or ``flat`` (for :class:`~repro.testing.MemoryDevice`) is
    set.
    """

    at_s: float
    disks: Optional[list] = None    # [(disk_name, DiskDrive.snapshot())]
    flat: Optional[bytes] = None


def snapshot_media(device) -> MediaSnapshot:
    """Capture the durable state of ``device`` (instant, untimed)."""
    paths = getattr(device, "paths", None)
    if paths is not None:
        return MediaSnapshot(
            at_s=device.sim.now,
            disks=[(path.disk.name, path.disk.snapshot())
                   for path in paths])
    if not hasattr(device, "snapshot"):
        raise HardwareError(
            f"cannot snapshot {device!r}: neither a RAID controller "
            "nor a flat-store device")
    return MediaSnapshot(at_s=device.sim.now, flat=device.snapshot())


def restore_media(snapshot: MediaSnapshot, device) -> None:
    """Lay ``snapshot`` down onto a (fresh) compatible device."""
    if snapshot.disks is not None:
        paths = getattr(device, "paths", None)
        if paths is None or len(paths) != len(snapshot.disks):
            raise HardwareError(
                "snapshot has per-disk stores but the target is not a "
                "matching array")
        for path, (name, state) in zip(paths, snapshot.disks):
            if path.disk.name != name:
                raise HardwareError(
                    f"snapshot disk {name!r} does not match target "
                    f"{path.disk.name!r}")
            path.disk.restore(state)
        return
    if not hasattr(device, "restore"):
        raise HardwareError(
            "snapshot is a flat image but the target has no flat store")
    device.restore(snapshot.flat)


class CrashableDevice:
    """Device wrapper that executes a plan's :class:`HostCrash`.

    Satisfies the same device protocol as what it wraps (timed
    ``read``/``write`` processes, ``capacity_bytes``, instant ``peek``)
    so it can sit under an LFS transparently.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    @property
    def sim(self):
        return self.inner.sim

    def read(self, offset: int, nbytes: int):
        """Process: pass-through read (the host is up until the crash)."""
        if self.injector.crashed:
            raise CrashPoint("host is down", at_s=self.sim.now)
        data = yield from self.inner.read(offset, nbytes)
        return data

    def write(self, offset: int, data: bytes):
        """Process: write, possibly torn short by the crash point."""
        if self.injector.crashed:
            raise CrashPoint("host is down", at_s=self.sim.now)
        torn = self.injector.on_device_write(len(data))
        if torn is None:
            yield from self.inner.write(offset, data)
            return None
        if torn:
            # The torn prefix goes through the normal timed path, so an
            # array underneath updates parity atomically for it.
            yield from self.inner.write(offset, data[:torn])
        raise CrashPoint(
            f"host crash during device write #{self.injector.device_writes} "
            f"({torn}/{len(data)} bytes landed)",
            snapshot=snapshot_media(self.inner), at_s=self.sim.now)

    def peek(self, offset: int, nbytes: int) -> bytes:
        return self.inner.peek(offset, nbytes)
