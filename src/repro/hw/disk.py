"""Disk drive model: mechanics plus a flat byte store.

A :class:`DiskDrive` is both a *timing* model (seek curve, rotational
latency, media transfer rate, track-buffer read-ahead) and a *storage*
model — it really stores the bytes written to it, so the RAID and
file-system layers above can be verified byte-for-byte.  The store is
one anonymous private ``mmap`` of the drive's capacity: the kernel
hands out its zero-filled pages lazily, so a drive costs memory only
for the pages written, a write is one slice assignment and a read one
slice copy.  A bitmap of written 4 KiB blocks lets :meth:`snapshot`
copy the written extents alone, and lets a collected drive's store be
zeroed and handed to the next drive of the same capacity, whose writes
then land on pages already mapped.

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

import functools
import math
import mmap
import weakref
from typing import Optional

from repro.errors import DiskFailedError, HardwareError, MediumError
from repro.hw.specs import DiskSpec
from repro.sim import BusyMonitor, Resource, Simulator
from repro.units import KIB, MB, SECTOR_SIZE

#: Granularity of the written-block bitmap :meth:`DiskDrive.snapshot`
#: copies by: the file systems' block size and the host page size.
STORE_BLOCK_BYTES = 4 * KIB
#: Zeros to clear written runs with, one 1 MiB chunk at a time.
_ZEROS = memoryview(bytes(256 * STORE_BLOCK_BYTES))

#: Stores of collected drives by capacity, zeroed for the next drive:
#: their pages stay mapped, so a new drive writes without faulting
#: them in again.  At most ``_SPARE_LIMIT`` per capacity, enough for
#: a fully populated XBUS board (30 drives), so a process that once
#: held many drives does not keep them all mapped.
_SPARE_STORES: dict[int, list[mmap.mmap]] = {}
_SPARE_LIMIT = 32
#: Weak references to the live drives; collecting one spares its store.
_LIVE_DRIVES: set[weakref.ref] = set()


def _written_runs(written: bytearray) -> list[tuple[int, int]]:
    """``[first, last)`` block range of each run of written blocks."""
    runs = []
    first = written.find(1)
    while first >= 0:
        last = written.find(0, first)
        if last < 0:
            last = len(written)
        runs.append((first, last))
        first = written.find(1, last)
    return runs


def _zero_written(store: mmap.mmap, written: bytearray) -> None:
    """Zero every written block of ``store`` and clear ``written``."""
    for first, last in _written_runs(written):
        end = min(last * STORE_BLOCK_BYTES, len(store))
        for start in range(first * STORE_BLOCK_BYTES, end, len(_ZEROS)):
            stop = min(end, start + len(_ZEROS))
            store[start:stop] = _ZEROS[:stop - start]
        written[first:last] = bytes(last - first)


def _spare_store(store: mmap.mmap, written: bytearray,
                 drive: weakref.ref) -> None:
    _LIVE_DRIVES.discard(drive)
    spare = _SPARE_STORES.setdefault(len(store), [])
    if len(spare) < _SPARE_LIMIT:
        _zero_written(store, written)
        spare.append(store)


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
        capacity = spec.capacity_bytes
        spare = _SPARE_STORES.get(capacity)
        #: The bytes of every sector: an all-zero anonymous mapping
        #: whose pages the kernel fills in as they are first written.
        self._store = spare.pop() if spare else mmap.mmap(
            -1, capacity, flags=mmap.MAP_PRIVATE)
        #: One byte per STORE_BLOCK_BYTES block: 1 once written.
        self._written = bytearray(-(-capacity // STORE_BLOCK_BYTES))
        _LIVE_DRIVES.add(weakref.ref(self, functools.partial(
            _spare_store, self._store, self._written)))
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
        sim.metrics.expose(name, self, {
            "reads": "", "writes": "", "bytes_read": "B",
            "bytes_written": "B", "media_errors": ""})

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
            _zero_written(self._store, self._written)
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
        return self._store[lba * SECTOR_SIZE:(lba + nsectors) * SECTOR_SIZE]

    def _save(self, lba: int, data: bytes) -> None:
        start = lba * SECTOR_SIZE
        end = start + len(data)
        # The durability boundary: bytes become stable here.
        self._store[start:end] = data  # lint: disable=SIM004
        first = start // STORE_BLOCK_BYTES
        last = -(-end // STORE_BLOCK_BYTES)
        self._written[first:last] = b"\x01" * (last - first)
        if self._bad_sectors:
            # Writing a latent-error sector remaps/heals it.
            self._bad_sectors.difference_update(
                range(lba, lba + len(data) // SECTOR_SIZE))

    def snapshot(self) -> list:
        """The durable contents, for :meth:`restore` (instant, untimed).

        The value is opaque to callers: a copy of each run of written
        blocks, so its size follows what was written, not the capacity.
        """
        store = self._store
        return [(first, store[first * STORE_BLOCK_BYTES:
                              last * STORE_BLOCK_BYTES])
                for first, last in _written_runs(self._written)]

    def restore(self, state: list) -> None:
        """Replace the durable contents with a :meth:`snapshot`."""
        _zero_written(self._store, self._written)
        store = self._store
        written = self._written
        for first, data in state:
            start = first * STORE_BLOCK_BYTES
            store[start:start + len(data)] = data
            last = first + -(-len(data) // STORE_BLOCK_BYTES)
            written[first:last] = b"\x01" * (last - first)

    def _check_extent(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise HardwareError(f"transfer must cover >= 1 sector, got {nsectors}")
        if lba < 0 or lba + nsectors > self.num_sectors:
            raise HardwareError(
                f"{self.name}: extent [{lba}, {lba + nsectors}) outside "
                f"0..{self.num_sectors}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DiskDrive {self.name} ({self.spec.name})>"
