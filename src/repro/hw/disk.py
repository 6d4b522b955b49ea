"""Disk drive model: mechanics plus a sparse sector store.

A :class:`DiskDrive` is both a *timing* model (seek curve, rotational
latency, media transfer rate, track-buffer read-ahead) and a *storage*
model — it really stores the bytes written to it, sparsely, so the RAID
and file-system layers above can be verified byte-for-byte.

Timing structure per operation (all under the drive's single command
slot, since a drive services one command at a time):

``overhead + seek + rotational latency + media transfer``

* Seek time follows ``min + (max - min) * sqrt(cylinder distance
  fraction)``; the head position is tracked between operations.
* Sequential reads (an operation starting where the previous read
  ended) skip both seek and rotational latency thanks to the on-drive
  track read-ahead buffer — "sequential reads benefit from the
  read-ahead performed into track buffers on the disks" (Section 2.3).
* Sequential writes skip the seek but still pay a configurable fraction
  of a revolution, because "writes have no such advantage".
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import DiskFailedError, HardwareError, MediumError
from repro.hw.specs import DiskSpec
from repro.sim import BusyMonitor, Resource, Simulator
from repro.units import MB, SECTOR_SIZE

_ZERO_SECTOR = bytes(SECTOR_SIZE)


class DiskDrive:
    """One simulated disk drive."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._slot = Resource(sim, capacity=1, name=f"{name}.slot")
        self._store: dict[int, bytes] = {}
        self._head_cylinder = 0
        #: (kind, next_lba) of the most recent operation, for
        #: sequential-access detection.
        self._last: Optional[tuple[str, int]] = None
        self.failed = False
        #: Set by :meth:`repair`: the drive is a replacement whose
        #: contents no rebuild has vouched for yet.  RAID treats every
        #: row of it as unavailable until a rebuild starts.
        self.replacement = False
        #: Optional fault-injection hook (see repro.faults.inject);
        #: consulted at the start of every timed operation.
        self.faults = None
        #: LBAs with latent sector errors: reads raise MediumError,
        #: writes heal (drives remap bad sectors on write).
        self._bad_sectors: set[int] = set()
        self.media_errors = 0
        self.busy = BusyMonitor(sim, name=f"{name}.busy")
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_sectors(self) -> int:
        return self.spec.capacity_bytes // SECTOR_SIZE

    def cylinder_of(self, lba: int) -> int:
        return (lba * SECTOR_SIZE) // self.spec.cylinder_bytes

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seek curve: zero for same cylinder, sqrt law otherwise."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        span = max(1, self.spec.num_cylinders - 1)
        fraction = min(1.0, distance / span)
        # A full-span seek can land one ULP above max_seek_s through
        # float rounding; clamp so the spec bound really is a bound.
        return min(self.spec.max_seek_s,
                   self.spec.min_seek_s
                   + (self.spec.max_seek_s - self.spec.min_seek_s)
                   * math.sqrt(fraction))

    def media_transfer_time(self, nbytes: int) -> float:
        return nbytes / (self.spec.media_rate_mb_s * MB)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the drive failed; subsequent I/O raises DiskFailedError."""
        self.failed = True

    def repair(self, wipe: bool = True) -> None:
        """Bring a replacement drive online (empty unless ``wipe=False``).

        The drive is flagged as a :attr:`replacement` until a RAID
        rebuild starts on it.
        """
        self.failed = False
        self.replacement = True
        if wipe:
            self._store.clear()
            self._bad_sectors.clear()
        self._last = None
        self._head_cylinder = 0

    def mark_bad(self, lba: int, nsectors: int) -> None:
        """Install a latent sector error over ``nsectors`` at ``lba``.

        Reads overlapping the extent raise :class:`MediumError` until
        the sectors are rewritten.
        """
        self._check_extent(lba, nsectors)
        self._bad_sectors.update(range(lba, lba + nsectors))

    def _check_medium(self, lba: int, nsectors: int) -> None:
        bad = self._bad_sectors
        if bad and not bad.isdisjoint(range(lba, lba + nsectors)):
            self.media_errors += 1
            first = min(s for s in range(lba, lba + nsectors) if s in bad)
            raise MediumError(self.name, first)

    # ------------------------------------------------------------------
    # timed I/O (simulation processes)
    # ------------------------------------------------------------------
    def read(self, lba: int, nsectors: int):
        """Process: read ``nsectors`` starting at ``lba``; returns bytes."""
        self._check_extent(lba, nsectors)
        with self.sim.tracer.span("disk.read", self.name,
                                  nbytes=nsectors * SECTOR_SIZE, lba=lba):
            yield self._slot.acquire()
            self.busy.enter()
            try:
                faults = self.faults
                if faults is not None:
                    faults.on_disk_op(self, "read", lba, nsectors)
                if self.failed:
                    raise DiskFailedError(self.name)
                self._check_medium(lba, nsectors)
                yield self.sim.timeout(
                    self._service_time("read", lba, nsectors))
                self._last = ("read", lba + nsectors)
                self.reads += 1
                self.bytes_read += nsectors * SECTOR_SIZE
                return self.peek(lba, nsectors)
            finally:
                self.busy.exit()
                self._slot.release()

    def write(self, lba: int, data: bytes):
        """Process: write ``data`` (multiple of the sector size) at ``lba``."""
        if len(data) % SECTOR_SIZE != 0:
            raise HardwareError(
                f"write size {len(data)} is not sector-aligned")
        nsectors = len(data) // SECTOR_SIZE
        self._check_extent(lba, nsectors)
        with self.sim.tracer.span("disk.write", self.name,
                                  nbytes=len(data), lba=lba):
            yield self._slot.acquire()
            self.busy.enter()
            try:
                faults = self.faults
                if faults is not None:
                    faults.on_disk_op(self, "write", lba, nsectors)
                if self.failed:
                    raise DiskFailedError(self.name)
                yield self.sim.timeout(
                    self._service_time("write", lba, nsectors))
                self._last = ("write", lba + nsectors)
                self.poke(lba, data)
                self.writes += 1
                self.bytes_written += len(data)
                return None
            finally:
                self.busy.exit()
                self._slot.release()

    def _service_time(self, kind: str, lba: int, nsectors: int) -> float:
        spec = self.spec
        target_cyl = self.cylinder_of(lba)
        if kind == "read":
            # Track-buffer hit: exact continuation, or a small forward
            # skip the drive's read-ahead already covers (e.g. hopping
            # over a RAID-5 parity unit).
            gap = None
            if self._last is not None and self._last[0] == "read":
                gap = lba - self._last[1]
            if gap is not None and 0 <= gap <= spec.readahead_window_sectors:
                seek = 0.0 if target_cyl == self._head_cylinder \
                    else spec.min_seek_s
                rotation = 0.0
            else:
                seek = self.seek_time(self._head_cylinder, target_cyl)
                rotation = spec.avg_rotational_latency_s
        else:
            if self._last == ("write", lba):
                seek = 0.0
                rotation = (spec.sequential_write_rotation_fraction
                            * spec.revolution_time_s)
            else:
                seek = self.seek_time(self._head_cylinder, target_cyl)
                rotation = spec.avg_rotational_latency_s
        self._head_cylinder = target_cyl
        transfer = self.media_transfer_time(nsectors * SECTOR_SIZE)
        return spec.per_op_overhead_s + seek + rotation + transfer

    # ------------------------------------------------------------------
    # instantaneous (untimed) access, for verification and formatting
    # ------------------------------------------------------------------
    def peek(self, lba: int, nsectors: int) -> bytes:
        """Return stored bytes without consuming simulated time."""
        self._check_extent(lba, nsectors)
        store = self._store
        return b"".join(
            store.get(sector, _ZERO_SECTOR)
            for sector in range(lba, lba + nsectors))

    def poke(self, lba: int, data: bytes) -> None:
        """Store bytes without consuming simulated time."""
        if len(data) % SECTOR_SIZE != 0:
            raise HardwareError(
                f"write size {len(data)} is not sector-aligned")
        nsectors = len(data) // SECTOR_SIZE
        self._check_extent(lba, nsectors)
        view = memoryview(data)
        store = self._store
        for index in range(nsectors):
            # The durability boundary: bytes become stable here.
            chunk = bytes(  # lint: disable=SIM004
                view[index * SECTOR_SIZE:(index + 1) * SECTOR_SIZE])
            store[lba + index] = chunk
        if self._bad_sectors:
            # Writing a latent-error sector remaps/heals it.
            self._bad_sectors.difference_update(range(lba, lba + nsectors))

    def _check_extent(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise HardwareError(f"transfer must cover >= 1 sector, got {nsectors}")
        if lba < 0 or lba + nsectors > self.num_sectors:
            raise HardwareError(
                f"{self.name}: extent [{lba}, {lba + nsectors}) outside "
                f"0..{self.num_sectors}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDrive {self.name} ({self.spec.name})>"
