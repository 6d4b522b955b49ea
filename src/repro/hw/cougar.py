"""Interphase Cougar dual-string VME disk controller.

The Cougar couples two SCSI strings to one VME bus and can move about
8 MB/s.  When *both* of its strings transfer at once, there is "some
contention on the controller that results in lower performance"
(Section 2.3) — the cause of the throughput dip at 768 KB in Figure 5.
We charge a fixed contention penalty to any transfer that runs while
the controller's other string is busy.

The controller owns the full disk-to-VME path: a read is
``disk mechanics -> (media transfer || string transfer || controller
transfer)``, the parallel stage modelling cut-through through the
drive's buffer and the controller's FIFOs.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hw.disk import DiskDrive
from repro.hw.specs import (COUGAR_SPEC, SCSI_STRING_SPEC, CougarSpec,
                            ScsiStringSpec)
from repro.hw.scsi import ScsiString
from repro.obs.metrics import counter_view
from repro.sim import BandwidthChannel, Simulator
from repro.units import SECTOR_SIZE


class CougarController:
    """One Cougar board: two SCSI strings sharing a controller channel."""

    #: Controller-level retries: always 0.  A failing leg fails the
    #: whole operation and the RAID layer's one retry loop handles it;
    #: the attribute stays for readers of the old counter (the
    #: benchmark's ``cougar.retries`` per-layer metric).
    retries = 0

    contention_events = counter_view("_m_contention_events")

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
        self.strings = [
            ScsiString(sim, string_spec, name=f"{name}.s{index}")
            for index in range(spec.strings)
        ]
        self._m_contention_events = sim.metrics.counter(
            name, "contention_events")
        #: Operations currently in flight per string (indexed like
        #: ``strings``); used for the dual-string contention check.
        self._inflight = [0] * spec.strings

    # ------------------------------------------------------------------
    def string_of(self, disk: DiskDrive) -> ScsiString:
        for string in self.strings:
            if disk in string.disks:
                return string
        raise HardwareError(f"{disk.name} is not on any string of {self.name}")

    @property
    def disks(self) -> list[DiskDrive]:
        return [disk for string in self.strings for disk in string.disks]

    def _other_string_busy(self, string: ScsiString) -> bool:
        index = self.strings.index(string)
        return any(count > 0 for other, count in enumerate(self._inflight)
                   if other != index)

    def _dual_string_delay(self, string: ScsiString):
        """Process: serial command-handling delay when both strings are
        in use.  This is "contention on the controller that results in
        lower performance when both strings are used" (Section 2.3) —
        charged up front, before the data legs, so it extends the
        operation's critical path."""
        if self._other_string_busy(string):
            self._m_contention_events.inc()
            yield self.sim.timeout(self.spec.dual_string_penalty_s)
        return None

    def _controller_transfer(self, string: ScsiString, nbytes: int):
        """Process: the controller-internal data leg."""
        with self.sim.tracer.span("cougar.bus", self.name, nbytes=nbytes):
            yield from self.channel.transfer(nbytes)

    def _join(self, string: ScsiString, legs: list):
        """Process: wait for an operation's concurrent legs, counted in
        flight on ``string`` meanwhile; returns their values in order.
        A failing leg (a transient error, a dead drive) fails the
        operation at once."""
        index = self.strings.index(string)
        self._inflight[index] += 1
        try:
            values = yield self.sim.all_of(legs)
        finally:
            self._inflight[index] -= 1
        return values

    # ------------------------------------------------------------------
    def read(self, disk: DiskDrive, lba: int, nsectors: int):
        """Process: read from ``disk`` up through the controller.

        Returns the bytes read.  The three data-movement legs (drive
        media, SCSI string, controller channel) run concurrently to
        model cut-through; the operation completes when the slowest
        finishes.
        """
        string = self.string_of(disk)
        nbytes = nsectors * SECTOR_SIZE
        with self.sim.tracer.span("cougar.read", self.name, nbytes=nbytes):
            yield from self._dual_string_delay(string)
            legs = [
                self.sim.process(disk.read(lba, nsectors),
                                 name=f"{disk.name}.read"),
                self.sim.process(string.transfer(nbytes),
                                 name=f"{string.name}.xfer"),
                self.sim.process(self._controller_transfer(string, nbytes),
                                 name=f"{self.name}.xfer"),
            ]
            values = yield from self._join(string, legs)
            return values[0]

    def write(self, disk: DiskDrive, lba: int, data: bytes):
        """Process: write ``data`` to ``disk`` down through the controller."""
        string = self.string_of(disk)
        with self.sim.tracer.span("cougar.write", self.name,
                                  nbytes=len(data)):
            yield from self._dual_string_delay(string)
            legs = [
                self.sim.process(disk.write(lba, data),
                                 name=f"{disk.name}.write"),
                self.sim.process(string.transfer(len(data), write=True),
                                 name=f"{string.name}.xfer"),
                self.sim.process(
                    self._controller_transfer(string, len(data)),
                    name=f"{self.name}.xfer"),
            ]
            yield from self._join(string, legs)
            return None
