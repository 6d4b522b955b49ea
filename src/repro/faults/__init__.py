"""Deterministic fault injection for the RAID-II reproduction.

RAID-II's value proposition is serving data *through* failures; this
package makes the failures first-class and reproducible.  A
:class:`FaultPlan` declares fault events against the sim clock
(whole-disk death, transient SCSI errors, latent sector errors, link
stalls, a simulated host crash); a :class:`FaultInjector` arms the plan
on the hardware models via pull-style hooks.  A :class:`HostCrash`
fires at the one crash hook, where a disk write lands
(:meth:`FaultInjector.on_landing`): it halts the host between any two
disk writes, even the data and parity writes of one RAID row, and
:func:`snapshot_media`/:func:`restore_media` carry the durable media
to a fresh stack for remount.  Healing is not configured here: the
RAID layer's one retry loop absorbs transient errors with a fixed
number of quick retries, then serves the data through redundancy.

Design rule: injection is *pulled* at each operation, never scheduled
— an armed empty plan is bit-identical (in the determinism
fingerprint) to a run without this package, and armed non-empty plans
replay identically, which is what lets failure tests use the
determinism trace.
"""

from repro.faults.crash import restore_media, snapshot_media
from repro.faults.inject import FaultInjector, attach_array, attach_server
from repro.faults.plan import (DiskDeath, FaultPlan, HostCrash,
                               LatentSectorError, LinkStall, TransientFault)

__all__ = [
    "DiskDeath",
    "FaultInjector",
    "FaultPlan",
    "HostCrash",
    "LatentSectorError",
    "LinkStall",
    "TransientFault",
    "attach_array",
    "attach_server",
    "restore_media",
    "snapshot_media",
]
