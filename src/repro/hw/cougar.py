"""Interphase Cougar dual-string VME disk controller.

The Cougar couples two SCSI strings to one VME bus and can move about
8 MB/s.  When *both* of its strings transfer at once, there is "some
contention on the controller that results in lower performance"
(Section 2.3) — the cause of the throughput dip at 768 KB in Figure 5.
We charge a fixed contention penalty to any transfer that starts while
the controller's other string has an operation in flight: ``read`` and
``write`` check the per-string in-flight counts inline and hold their
own count while their legs run.

The controller owns the full disk-to-VME path: a read is
``disk mechanics -> (media transfer || string transfer || controller
transfer)``, the parallel stage modelling cut-through through the
drive's buffer and the controller's FIFOs.  The string and controller
legs are the bus channels' own transfers, one generator frame each;
only a string with a fault hook goes through
:meth:`ScsiString.transfer` to wait out a stall first.

Each disk's route — its string, the string's index and the names of the
three leg processes — is computed on the disk's first operation and
cached, so an operation neither scans the strings nor formats names.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.disk import DiskDrive
from repro.hw.specs import (COUGAR_SPEC, SCSI_STRING_SPEC, CougarSpec,
                            ScsiStringSpec)
from repro.hw.scsi import ScsiString
from repro.sim import BandwidthChannel, Simulator
from repro.units import SECTOR_SIZE


class CougarController:
    """One Cougar board: two SCSI strings sharing a controller channel."""

    #: Controller-level retries: always 0.  A failing leg fails the
    #: whole operation and the RAID layer's one retry loop handles it;
    #: the attribute stays for readers of the old counter (the
    #: benchmark's ``cougar.retries`` per-layer metric).
    retries = 0

    def __init__(self, sim: Simulator, spec: CougarSpec = COUGAR_SPEC,
                 string_spec: ScsiStringSpec = SCSI_STRING_SPEC,
                 name: str = "cougar"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.channel = BandwidthChannel(
            sim, rate_mb_s=spec.rate_mb_s,
            per_transfer_overhead=spec.per_transfer_overhead_s,
            name=f"{name}.bus")
        self.channel.span = "cougar.bus"
        self.strings = [
            ScsiString(sim, string_spec, name=f"{name}.s{index}")
            for index in range(spec.strings)
        ]
        self.contention_events = 0
        sim.metrics.expose(name, self, {"contention_events": ""})
        #: Operations currently in flight per string (indexed like
        #: ``strings``); used for the dual-string contention check.
        self._inflight = [0] * spec.strings
        self._xfer_name = f"{name}.xfer"
        #: disk -> (string, string index, read leg name, write leg name,
        #: string leg name); filled by ``_route`` on first use.
        self._routes: dict[DiskDrive, tuple[ScsiString, int, str, str, str]] = {}

    # ------------------------------------------------------------------
    def string_of(self, disk: DiskDrive) -> ScsiString:
        for string in self.strings:
            if disk in string.disks:
                return string
        raise HardwareError(f"{disk.name} is not on any string of {self.name}")

    @property
    def disks(self) -> list[DiskDrive]:
        return [disk for string in self.strings for disk in string.disks]

    def _route(self, disk: DiskDrive) -> tuple[ScsiString, int, str, str, str]:
        string = self.string_of(disk)
        route = (string, self.strings.index(string), f"{disk.name}.read",
                 f"{disk.name}.write", f"{string.name}.xfer")
        self._routes[disk] = route
        return route

    # ------------------------------------------------------------------
    def read(self, disk: DiskDrive, lba: int, nsectors: int):
        """Process: read from ``disk`` up through the controller.

        Returns the bytes read.  The three data-movement legs (drive
        media, SCSI string, controller channel) run concurrently to
        model cut-through; the operation completes when the slowest
        finishes, and fails at once when any leg fails (a transient
        error, a dead drive).
        """
        string, index, read_name, _, xfer_name = (
            self._routes.get(disk) or self._route(disk))
        sim = self.sim
        nbytes = nsectors * SECTOR_SIZE
        inflight = self._inflight
        if sum(inflight) > inflight[index]:
            # "Contention on the controller that results in lower
            # performance when both strings are used" (Section 2.3):
            # a serial command-handling delay, charged before the
            # data legs so it extends the critical path.
            self.contention_events += 1
            yield sim.timeout(self.spec.dual_string_penalty_s)
        inflight[index] += 1
        try:
            values = yield sim.fork(
                [disk.read(lba, nsectors),
                 string.channel.transfer(nbytes) if string.faults is None
                 else string.transfer(nbytes),
                 self.channel.transfer(nbytes)],
                (read_name, xfer_name, self._xfer_name))
        finally:
            inflight[index] -= 1
        return values[0]

    def write(self, disk: DiskDrive, lba: int, data: bytes):
        """Process: write ``data`` to ``disk`` down through the controller."""
        string, index, _, write_name, xfer_name = (
            self._routes.get(disk) or self._route(disk))
        sim = self.sim
        nbytes = len(data)
        # The string's (lower) write rate, as a byte count charged at
        # its read rate (see ScsiString.transfer).
        spec = string.spec
        charged = int(nbytes * spec.rate_mb_s / spec.write_rate_mb_s)
        inflight = self._inflight
        if sum(inflight) > inflight[index]:
            self.contention_events += 1
            yield sim.timeout(self.spec.dual_string_penalty_s)
        inflight[index] += 1
        try:
            yield sim.fork(
                [disk.write(lba, data),
                 string.channel.transfer(charged) if string.faults is None
                 else string.transfer(charged),
                 self.channel.transfer(nbytes)],
                (write_name, xfer_name, self._xfer_name))
        finally:
            inflight[index] -= 1
        return None
