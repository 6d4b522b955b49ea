"""Fault plans: declarative, sim-clock-driven failure schedules.

A :class:`FaultPlan` is an immutable collection of fault events, each
stamped with the simulated time at which it arms.  Plans are *pulled*,
never pushed: the injection hooks in the hardware layer consult the
plan's :class:`~repro.faults.inject.FaultInjector` at each operation,
so an armed plan schedules no events of its own and an **empty plan
leaves the simulation schedule bit-identical** to a run without the
faults package — the property the determinism tests pin down.

Event catalogue (the plan schema):

===================  =====================================================
:class:`DiskDeath`    whole-disk failure: the drive is failed at the first
                      I/O it sees at or after ``at_s``
:class:`TransientFault`
                      ``count`` retryable SCSI errors on the first ops at
                      or after ``at_s`` (healed by the RAID retry loop)
:class:`LatentSectorError`
                      persistent medium error over an LBA extent; reads
                      fail until the extent is rewritten
:class:`LinkStall`    a named link (SCSI string, VME port, HIPPI port)
                      stalls for ``duration_s`` starting at ``at_s``
:class:`HostCrash`    the host dies during the ``nth_write``-th device
                      write at/after ``at_s``; raises
                      :class:`~repro.errors.CrashPoint` carrying a media
                      snapshot (see :mod:`repro.faults.crash`)
===================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError


@dataclass(frozen=True)
class DiskDeath:
    """Fail the named drive at the first I/O at or after ``at_s``."""

    disk: str
    at_s: float = 0.0


@dataclass(frozen=True)
class TransientFault:
    """``count`` retryable errors on the named drive's next ops."""

    disk: str
    at_s: float = 0.0
    count: int = 1


@dataclass(frozen=True)
class LatentSectorError:
    """Mark ``nsectors`` starting at ``lba`` unreadable until rewritten."""

    disk: str
    lba: int
    nsectors: int = 1
    at_s: float = 0.0


@dataclass(frozen=True)
class LinkStall:
    """Stall the named link for ``duration_s`` starting at ``at_s``.

    A transfer that begins inside the window waits until the window
    closes before proceeding (modelling a wedged bus that recovers).
    """

    link: str
    at_s: float
    duration_s: float


@dataclass(frozen=True)
class HostCrash:
    """Crash the host during a device write.

    The crash fires on the ``nth_write``-th device-level write issued
    at or after ``at_s`` (1-based).  ``torn_fraction`` of that write
    lands on the media first (rounded down to a sector multiple), so a
    fraction of 0.0 crashes exactly at the write boundary.
    """

    nth_write: int = 1
    at_s: float = 0.0
    torn_fraction: float = 0.0


_EVENT_TYPES = (DiskDeath, TransientFault, LatentSectorError, LinkStall,
                HostCrash)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events."""

    events: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for event in self.events:
            if not isinstance(event, _EVENT_TYPES):
                raise SimulationError(
                    f"not a fault event: {event!r}")
        crashes = [e for e in self.events if isinstance(e, HostCrash)]
        if len(crashes) > 1:
            raise SimulationError(
                "a plan may schedule at most one HostCrash "
                f"(got {len(crashes)}) — after the first, the host is down")

    @classmethod
    def of(cls, *events) -> "FaultPlan":
        """Build a plan from the given events."""
        return cls(events=tuple(events))

    @property
    def is_empty(self) -> bool:
        return not self.events

    def select(self, event_type) -> list:
        return [e for e in self.events if isinstance(e, event_type)]
