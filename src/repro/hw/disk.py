"""Disk drive model: mechanics plus a sparse block store.

A :class:`DiskDrive` is both a *timing* model (seek curve, rotational
latency, media transfer rate, track-buffer read-ahead) and a *storage*
model — it really stores the bytes written to it, sparsely in 4 KiB
blocks, so the RAID and file-system layers above can be verified
byte-for-byte.

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
from repro.units import KIB, MB, SECTOR_SIZE

#: Bytes per store entry: the file systems' block size, so a block
#: write is one dict entry and one copy.
STORE_BLOCK_BYTES = 4 * KIB
_BLOCK_SECTORS = STORE_BLOCK_BYTES // SECTOR_SIZE
_ZERO_BLOCK = bytes(STORE_BLOCK_BYTES)


class DiskDrive:
    """One simulated disk drive."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = "disk"):
        self.sim = sim
        self.spec = spec
        self.name = name
        # Geometry and rate derived from the frozen spec, computed once.
        self.num_sectors = spec.capacity_bytes // SECTOR_SIZE
        self._cylinder_bytes = spec.cylinder_bytes
        self._seek_span = max(1, spec.num_cylinders - 1)
        self._media_bytes_per_s = spec.media_rate_mb_s * MB
        self._avg_rotation_s = spec.avg_rotational_latency_s
        self._slot = Resource(sim, capacity=1, name=f"{name}.slot")
        #: Sparse byte store: block index -> STORE_BLOCK_BYTES of data;
        #: blocks never written read as zeros.
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
        #: consulted at the start of every timed operation, and as each
        #: write lands while a host crash is armed.
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
    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seek curve: zero for same cylinder, sqrt law otherwise."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        fraction = min(1.0, distance / self._seek_span)
        # A full-span seek can land one ULP above max_seek_s through
        # float rounding; clamp so the spec bound really is a bound.
        return min(self.spec.max_seek_s,
                   self.spec.min_seek_s
                   + (self.spec.max_seek_s - self.spec.min_seek_s)
                   * math.sqrt(fraction))

    def media_transfer_time(self, nbytes: int) -> float:
        return nbytes / self._media_bytes_per_s

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
        if not bad.isdisjoint(range(lba, lba + nsectors)):
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
                    faults.on_disk_op(self, "read")
                if self.failed:
                    raise DiskFailedError(self.name)
                if self._bad_sectors:
                    self._check_medium(lba, nsectors)
                yield self.sim.timeout(
                    self._service_time("read", lba, nsectors))
                self._last = ("read", lba + nsectors)
                self.reads += 1
                self.bytes_read += nsectors * SECTOR_SIZE
                return self._load(lba, nsectors)
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
                    faults.on_disk_op(self, "write")
                if self.failed:
                    raise DiskFailedError(self.name)
                yield self.sim.timeout(
                    self._service_time("write", lba, nsectors))
                self._last = ("write", lba + nsectors)
                if faults is not None and faults.crash_armed:
                    # The one crash hook: writes are counted as they land.
                    faults.on_landing(self, lba, data)
                self._save(lba, data)
                self.writes += 1
                self.bytes_written += len(data)
                return None
            finally:
                self.busy.exit()
                self._slot.release()

    def _service_time(self, kind: str, lba: int, nsectors: int) -> float:
        spec = self.spec
        target_cyl = (lba * SECTOR_SIZE) // self._cylinder_bytes
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
                rotation = self._avg_rotation_s
        else:
            if self._last == ("write", lba):
                seek = 0.0
                rotation = (spec.sequential_write_rotation_fraction
                            * spec.revolution_time_s)
            else:
                seek = self.seek_time(self._head_cylinder, target_cyl)
                rotation = self._avg_rotation_s
        self._head_cylinder = target_cyl
        transfer = self.media_transfer_time(nsectors * SECTOR_SIZE)
        return spec.per_op_overhead_s + seek + rotation + transfer

    # ------------------------------------------------------------------
    # instantaneous (untimed) access, for verification and formatting
    # ------------------------------------------------------------------
    def peek(self, lba: int, nsectors: int) -> bytes:
        """Return stored bytes without consuming simulated time."""
        self._check_extent(lba, nsectors)
        return self._load(lba, nsectors)

    def poke(self, lba: int, data: bytes) -> None:
        """Store bytes without consuming simulated time."""
        if len(data) % SECTOR_SIZE != 0:
            raise HardwareError(
                f"write size {len(data)} is not sector-aligned")
        self._check_extent(lba, len(data) // SECTOR_SIZE)
        self._save(lba, data)

    def _load(self, lba: int, nsectors: int) -> bytes:
        first, head = divmod(lba, _BLOCK_SECTORS)
        get = self._store.get
        if not head and nsectors == _BLOCK_SECTORS:
            return get(first, _ZERO_BLOCK)
        last, tail = divmod(lba + nsectors - 1, _BLOCK_SECTORS)
        if first == last:
            return get(first, _ZERO_BLOCK)[
                head * SECTOR_SIZE:(tail + 1) * SECTOR_SIZE]
        parts: list = [get(index, _ZERO_BLOCK)
                       for index in range(first, last + 1)]
        if head:
            parts[0] = memoryview(parts[0])[head * SECTOR_SIZE:]
        if tail != _BLOCK_SECTORS - 1:
            parts[-1] = memoryview(parts[-1])[:(tail + 1) * SECTOR_SIZE]
        return b"".join(parts)

    def _save(self, lba: int, data: bytes) -> None:
        view = memoryview(data)
        size = len(view)
        index, head = divmod(lba, _BLOCK_SECTORS)
        at = 0
        if head:
            # Leading partial block.
            at = min(size, STORE_BLOCK_BYTES - head * SECTOR_SIZE)
            self._merge(index, head * SECTOR_SIZE, view[:at])
            index += 1
        body_end = size - (size - at) % STORE_BLOCK_BYTES
        store = self._store
        for start in range(at, body_end, STORE_BLOCK_BYTES):
            # The durability boundary: bytes become stable here.
            store[index] = bytes(  # lint: disable=SIM004
                view[start:start + STORE_BLOCK_BYTES])
            index += 1
        if body_end < size:
            # Trailing partial block.
            self._merge(index, 0, view[body_end:])
        if self._bad_sectors:
            # Writing a latent-error sector remaps/heals it.
            self._bad_sectors.difference_update(
                range(lba, lba + size // SECTOR_SIZE))

    def _merge(self, index: int, offset: int, piece: memoryview) -> None:
        """Write ``piece`` into block ``index`` at byte ``offset``,
        keeping the rest of the block (zeros if never written)."""
        old = memoryview(self._store.get(index, _ZERO_BLOCK))
        self._store[index] = b"".join(
            (old[:offset], piece, old[offset + len(piece):]))

    def snapshot(self) -> dict:
        """The durable contents, for :meth:`restore` (instant, untimed).

        The value is opaque to callers; stored blocks are immutable, so
        a shallow copy of the store is a complete snapshot.
        """
        return dict(self._store)

    def restore(self, state: dict) -> None:
        """Replace the durable contents with a :meth:`snapshot`."""
        self._store = dict(state)

    def _check_extent(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise HardwareError(f"transfer must cover >= 1 sector, got {nsectors}")
        if lba < 0 or lba + nsectors > self.num_sectors:
            raise HardwareError(
                f"{self.name}: extent [{lba}, {lba + nsectors}) outside "
                f"0..{self.num_sectors}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDrive {self.name} ({self.spec.name})>"
