"""Crash snapshots: the durable media of a crashed host, by store name.

A :class:`~repro.faults.plan.HostCrash` fires where bytes become
durable: the write path of every :class:`~repro.hw.DiskDrive` and
:class:`~repro.testing.MemoryDevice` an injector is attached to (see
:meth:`~repro.faults.inject.FaultInjector.on_landing`).  The injector
then captures every attached store with :func:`snapshot_media` and
raises :class:`~repro.errors.CrashPoint` carrying the snapshot.

A test then rebuilds a *fresh* simulator and device stack, calls
:func:`restore_media` to lay the snapshot onto its stores by name,
mounts, and lets LFS roll-forward recovery do its work — exactly the
sequence a real power-fail test rig performs.

A snapshot maps each store's ``name`` to that store's own instant,
untimed ``snapshot()``, so the store formats stay private to the
devices.  This module is verification machinery, deliberately outside
the timed data path.
"""

from __future__ import annotations

from repro.errors import HardwareError


def snapshot_media(stores) -> dict:
    """Capture the durable state of ``stores`` (instant, untimed)."""
    snapshot = {store.name: store.snapshot() for store in stores}
    if len(snapshot) != len(stores):
        raise HardwareError("cannot snapshot stores that share a name")
    return snapshot


def restore_media(snapshot: dict, stores) -> None:
    """Lay ``snapshot`` onto the (fresh) stores of the same names."""
    by_name = {store.name: store for store in stores}
    if by_name.keys() != snapshot.keys():
        raise HardwareError(
            f"snapshot holds stores {sorted(snapshot)} but the target "
            f"has {sorted(by_name)}")
    for name, state in snapshot.items():
        by_name[name].restore(state)
