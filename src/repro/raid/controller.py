"""RAID controllers: timed, byte-accurate striping with redundancy.

The controllers drive disk paths (see :mod:`repro.raid.paths`) and
implement the real algorithms:

* **RAID 0** — striping only.
* **RAID 1** — mirrored striping; reads alternate between copies and
  fall back to the other copy.
* **RAID 5** — rotated parity with the classic write paths: a write
  covering a full row is a *full-stripe write* (parity computed over
  the new data, no old data read — the efficient large write the
  paper's Section 3.1 relies on); anything smaller is a
  *read-modify-write* costing the notorious four accesses (read old
  data + old parity, write new data + new parity), or a
  *reconstruct-write* when it covers more than half the row.  Degraded
  reads and writes reconstruct through parity.
* **RAID 3** — sector-interleaved with a dedicated parity disk; every
  access engages all data disks and the whole array is locked per
  operation, reproducing Level 3's one-I/O-at-a-time behaviour that
  Section 4.2 contrasts with RAID-II's Level 5.

The redundant levels share one copy of each piece of failure handling,
kept on :class:`_BaseController`:

* **one retry loop** (:meth:`_BaseController._retrying`) under every
  unit read and write — the stack's only transient-error retry, with a
  fixed :data:`RETRY_ATTEMPTS` and doubling backoff; each level adds
  only its fallback (the mirror, reconstruction, or heal-by-rewrite);
* **one trust predicate** (:meth:`_BaseController.unavailable`): a
  disk's copy of a row is unavailable when the disk failed, is a
  replacement no rebuild has reached yet, or the row lies at or past
  the disk's rebuild frontier;
* **one rebuild engine** (:meth:`_BaseController.rebuild`): it walks a
  replaced disk from row 0, advancing a frontier behind which the disk
  is trusted again.  Each level supplies its reconstruct step (XOR of
  the row's survivors for RAID 5, a copy from the mirror for RAID 1,
  XOR of the other disks over 128-row chunks for RAID 3) and the lock
  the step holds (the row lock, or RAID 3's array lock).

Parity arithmetic is performed by a pluggable *parity computer* so the
same controller code can use the XBUS board's timed parity engine or
an instant XOR for functional tests.  Redundancy is checked by
:func:`repro.analysis.scrub_raid.scrub_array`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import (DiskFailedError, MediumError, RaidError,
                          TransientDiskError, UnrecoverableArrayError)
from repro.hw.parity import xor_blocks
from repro.raid.layout import (Piece, Raid0Layout, Raid1Layout, Raid3Layout,
                               Raid5Layout, _StripedLayout)
from repro.sim import Resource, Simulator
from repro.units import MS, SECTOR_SIZE

#: Attempts per unit read or write (first try included) before a
#: transient error falls through to redundancy: "a few quick retries,
#: then reconstruction".
RETRY_ATTEMPTS = 4
#: Delay before the first retry; it doubles before each later one.
RETRY_BACKOFF_S = 2.0 * MS


class InstantParity:
    """Zero-time XOR, for functional tests of the RAID algorithms."""

    def compute(self, blocks: Sequence[bytes]):
        return xor_blocks(blocks)
        yield  # pragma: no cover - makes this a generator


class _BaseController:
    """Mapping, assembly and shared plumbing for all RAID levels."""

    #: Rows one rebuild step reconstructs under one hold of its lock.
    _rebuild_chunk_rows = 1

    def __init__(self, sim: Simulator, paths: Sequence, layout: _StripedLayout,
                 name: str = "raid"):
        if len(paths) != layout.num_disks:
            raise RaidError(
                f"layout expects {layout.num_disks} disks, got {len(paths)}")
        self.sim = sim
        self.paths = list(paths)
        self.layout = layout
        self.name = name
        self._row_locks: dict[int, Resource] = {}
        #: disk index -> first row NOT yet rebuilt.  A replaced disk is
        #: blank, not failed: rows at or past its frontier are treated
        #: as unavailable and served through redundancy instead.
        self._rebuild_frontier: dict[int, int] = {}
        self.degraded_reads = 0
        self.degraded_writes = 0
        self.media_error_heals = 0
        self.transient_retries = 0
        self.rebuilt_rows = 0
        sim.metrics.expose(name, self, {
            "degraded_reads": "", "degraded_writes": "",
            "media_error_heals": "", "transient_retries": "",
            "rebuilt_rows": ""})

    @property
    def capacity_bytes(self) -> int:
        return self.layout.capacity_bytes

    @property
    def stripe_unit_bytes(self) -> int:
        return self.layout.stripe_unit_bytes

    def unavailable(self, disk: int, row: int) -> bool:
        """True when ``disk``'s copy of ``row`` cannot be trusted: the
        disk failed, or it is a replacement whose rebuild has not
        reached that row (a replacement no rebuild has started on
        counts as a frontier at row 0)."""
        drive = self.paths[disk].disk
        if drive.failed or drive.replacement:
            return True
        frontier = self._rebuild_frontier.get(disk)
        return frontier is not None and row >= frontier

    def _row_lock(self, row: int) -> Resource:
        lock = self._row_locks.get(row)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"{self.name}.row{row}")
            self._row_locks[row] = lock
        return lock

    # ------------------------------------------------------------------
    # timed reads (common shape; degraded handling per level)
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int):
        """Process: read a logical range; returns the bytes."""
        pieces = self.layout.map_data(offset, nbytes)
        values = yield self.sim.fork(
            [self._read_piece(piece) for piece in pieces],
            ["piece-read"] * len(pieces))
        return b"".join(values)

    def _read_piece(self, piece: Piece):
        path = self.paths[piece.disk]
        if path.disk.failed:
            data = yield from self._degraded_read(piece)
            return data
        try:
            data = yield from path.read(piece.lba, piece.nsectors)
            return data
        except DiskFailedError:
            data = yield from self._degraded_read(piece)
            return data

    def _degraded_read(self, piece: Piece):
        raise UnrecoverableArrayError(
            f"{self.name}: disk {piece.disk} failed and this level has "
            "no redundancy")
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # timed writes: one process per row, each under its row lock
    # ------------------------------------------------------------------
    def write(self, offset: int, data: bytes):
        """Process: write a logical range, row by row."""
        pieces = self.layout.map_data(offset, len(data))
        data = memoryview(data)  # sliced (never copied) on the way down
        by_row: dict[int, list[Piece]] = {}
        for piece in pieces:
            by_row.setdefault(piece.row, []).append(piece)
        yield self.sim.fork(
            [self._write_row(row, row_pieces, offset, data)
             for row, row_pieces in by_row.items()],
            [f"{self.name}.row{row}.write" for row in by_row])
        return None

    def _write_row(self, row: int, pieces: list[Piece], offset: int,
                   data: memoryview):
        raise NotImplementedError
        yield  # pragma: no cover

    @staticmethod
    def _payload_of(piece: Piece, offset: int,
                    data: memoryview) -> memoryview:
        start = piece.logical_offset - offset
        return data[start:start + piece.nbytes]

    # ------------------------------------------------------------------
    # retried unit I/O (shared by the redundant levels)
    # ------------------------------------------------------------------
    def _retrying(self, io, *args):
        """Process: run ``io(*args)``, retrying transient errors.

        The one transient-error retry of the whole stack: each of the
        :data:`RETRY_ATTEMPTS` attempts is a fresh ``io`` generator, and
        the gap between them starts at :data:`RETRY_BACKOFF_S` and
        doubles.  The last ``TransientDiskError`` propagates, as do hard
        errors (``DiskFailedError``, ``MediumError``) at once, for the
        caller to route through redundancy.
        """
        backoff = RETRY_BACKOFF_S
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                result = yield from io(*args)
                return result
            except TransientDiskError:
                self.transient_retries += 1
                if attempt == RETRY_ATTEMPTS:
                    raise
            yield self.sim.timeout(backoff)
            backoff *= 2.0

    def _read_unit(self, disk: int, lba: int, nsectors: int):
        """Process: one unit read, retrying transient errors."""
        data = yield from self._retrying(self.paths[disk].read, lba,
                                         nsectors)
        return data

    def _data_write(self, disk: int, lba: int, payload,
                    tolerate_failure: bool = True):
        """Process: one unit write, retrying transient errors.

        With ``tolerate_failure`` (the default) a dead disk swallows
        the write — correct wherever redundancy covers the lost bytes
        (parity computed over the *new* data, or a surviving mirror).
        Rebuild writes pass ``False``: losing the replacement must
        abort the rebuild, not silently complete it.
        """
        try:
            yield from self._retrying(self.paths[disk].write, lba, payload)
        except DiskFailedError:
            if not tolerate_failure:
                raise
            self.degraded_writes += 1
        return None

    def _heal(self, disk: int, lba: int, data):
        """Process: best-effort rewrite of an extent that surfaced a
        medium error — the drive remaps the bad sectors on write, so
        subsequent reads go direct."""
        if self.paths[disk].disk.failed:
            return None
        try:
            yield from self.paths[disk].write(lba, data)
            self.media_error_heals += 1
        except (DiskFailedError, TransientDiskError):
            pass
        return None

    # ------------------------------------------------------------------
    # rebuild
    # ------------------------------------------------------------------
    def rebuild(self, disk_index: int, max_rows: Optional[int] = None):
        """Process: reconstruct a replaced disk from redundancy.

        The walk starts at row 0 and advances a *frontier*: rows at or
        past it are :meth:`unavailable` on the replacement, so reads
        and writes keep going through redundancy until the rebuild has
        passed them.  Each step rebuilds ``_rebuild_chunk_rows`` rows
        under the level's rebuild lock, so concurrent writes serialize
        cleanly with it.

        ``max_rows`` bounds the walk.  A bounded walk leaves the
        frontier where it stopped — the rest of the disk stays
        degraded — and only a walk that reaches the last row drops it.
        """
        rows = self.layout.rows if max_rows is None else min(
            self.layout.rows, max_rows)
        self._rebuild_frontier[disk_index] = 0
        self.paths[disk_index].disk.replacement = False
        row = 0
        while row < rows:
            nrows = min(self._rebuild_chunk_rows, rows - row)
            lock = self._rebuild_lock(row)
            yield lock.acquire()
            try:
                data = yield from self._reconstruct_rows(disk_index, row,
                                                         nrows)
                yield from self._data_write(
                    disk_index, self.layout.row_lba(row), data,
                    tolerate_failure=False)
                self._rebuild_frontier[disk_index] = row + nrows
                self.rebuilt_rows += nrows
            finally:
                lock.release()
            row += nrows
        if rows == self.layout.rows:
            del self._rebuild_frontier[disk_index]
        return None

    def _rebuild_lock(self, row: int) -> Resource:
        """The lock one rebuild step starting at ``row`` holds."""
        return self._row_lock(row)

    def _reconstruct_rows(self, disk: int, row: int, nrows: int):
        """Process: ``disk``'s units over rows ``[row, row + nrows)``,
        recomputed from the other disks (the level's rebuild step)."""
        raise UnrecoverableArrayError(
            f"{self.name}: this level has no redundancy to rebuild "
            f"disk {disk} from")
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # instantaneous verification helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int, nbytes: int) -> bytes:
        """Assemble a logical range straight from the disk stores."""
        pieces = self.layout.map_data(offset, nbytes)
        return b"".join(
            self.paths[p.disk].disk.peek(p.lba, p.nsectors) for p in pieces)


class Raid0Controller(_BaseController):
    """Striping without redundancy."""

    def __init__(self, sim: Simulator, paths: Sequence,
                 stripe_unit_bytes: int, name: str = "raid0"):
        capacity = min(path.disk.spec.capacity_bytes for path in paths)
        layout = Raid0Layout(len(paths), stripe_unit_bytes, capacity)
        super().__init__(sim, paths, layout, name)

    def write(self, offset: int, data: bytes):
        """Process: write a logical range (no row locks: nothing to
        keep consistent across disks)."""
        pieces = self.layout.map_data(offset, len(data))
        view = memoryview(data)  # pieces are views; disks copy at poke
        writes = []
        for piece in pieces:
            start = piece.logical_offset - offset
            writes.append(self.paths[piece.disk].write(
                piece.lba, view[start:start + piece.nbytes]))
        yield self.sim.fork(writes)
        return None


class Raid1Controller(_BaseController):
    """Mirrored striping; reads alternate between the two copies."""

    def __init__(self, sim: Simulator, paths: Sequence,
                 stripe_unit_bytes: int, name: str = "raid1"):
        capacity = min(path.disk.spec.capacity_bytes for path in paths)
        layout = Raid1Layout(len(paths), stripe_unit_bytes, capacity)
        super().__init__(sim, paths, layout, name)
        self._layout1 = layout
        self._toggle = 0

    def _pick_copy(self, piece: Piece) -> int:
        primary = piece.disk
        mirror = self._layout1.mirror_of(primary)
        primary_ok = not self.unavailable(primary, piece.row)
        mirror_ok = not self.unavailable(mirror, piece.row)
        if primary_ok and mirror_ok:
            self._toggle ^= 1
            return primary if self._toggle else mirror
        if primary_ok:
            return primary
        if mirror_ok:
            return mirror
        raise UnrecoverableArrayError(
            f"{self.name}: both copies of disk {primary} failed")

    def _read_piece(self, piece: Piece):
        disk = self._pick_copy(piece)
        try:
            data = yield from self._read_unit(disk, piece.lba, piece.nsectors)
        except (DiskFailedError, TransientDiskError):
            data = yield from self._fallback_read(piece, disk)
        except MediumError:
            data = yield from self._fallback_read(piece, disk, heal=True)
        return data

    def _fallback_read(self, piece: Piece, bad_disk: int,
                       heal: bool = False):
        """Process: serve a piece from the other copy; ``heal``
        rewrites the bad copy's extent after a medium error."""
        self.degraded_reads += 1
        other = self._layout1.mirror_of(bad_disk)
        if self.unavailable(other, piece.row):
            raise UnrecoverableArrayError(
                f"{self.name}: both copies of disk {piece.disk} failed")
        data = yield from self._read_unit(other, piece.lba, piece.nsectors)
        if heal:
            yield from self._heal(bad_disk, piece.lba, data)
        return data

    def _write_row(self, row: int, pieces: list[Piece], offset: int,
                   data: memoryview):
        """Process: write both copies of a row's pieces under the row
        lock, so a rebuild copying the row never sees half a write."""
        lock = self._row_lock(row)
        yield lock.acquire()
        try:
            writes = [
                self._data_write(
                    disk, piece.lba, self._payload_of(piece, offset, data))
                for piece in pieces
                for disk in (piece.disk, self._layout1.mirror_of(piece.disk))
                if not self.paths[disk].disk.failed
            ]
            if not writes:
                raise UnrecoverableArrayError(
                    f"{self.name}: no surviving copy to write")
            yield self.sim.fork(writes)
        finally:
            lock.release()
        return None

    def _reconstruct_rows(self, disk: int, row: int, nrows: int):
        """Process: copy ``disk``'s rows from its mirror."""
        source = self._layout1.mirror_of(disk)
        if self.unavailable(source, row + nrows - 1):
            raise UnrecoverableArrayError(
                f"{self.name}: mirror of disk {disk} also failed")
        data = yield from self._read_unit(source, self.layout.row_lba(row),
                                          nrows * self.layout.unit_sectors)
        return data


class Raid5Controller(_BaseController):
    """Left-symmetric RAID 5 over one parity group."""

    def __init__(self, sim: Simulator, paths: Sequence,
                 stripe_unit_bytes: int, parity_computer=None,
                 name: str = "raid5"):
        capacity = min(path.disk.spec.capacity_bytes for path in paths)
        layout = Raid5Layout(len(paths), stripe_unit_bytes, capacity)
        super().__init__(sim, paths, layout, name)
        self._layout5 = layout
        self.parity = parity_computer if parity_computer is not None \
            else InstantParity()
        self.full_stripe_writes = 0
        self.rmw_writes = 0
        self.reconstruct_writes = 0
        sim.metrics.expose(name, self, {"full_stripe_writes": "",
                                        "rmw_writes": "",
                                        "reconstruct_writes": ""})

    # ------------------------------------------------------------------
    def _row_disks(self, row: int) -> list[int]:
        """All disks holding a unit of ``row`` (data plus parity)."""
        parity = self._layout5.parity_disk(row)
        data = [self._layout5.data_disk(row, k)
                for k in range(self.layout.data_units_per_row)]
        return data + [parity]

    def _surviving(self, disks: list[int], exclude: int,
                   row: int) -> list[int]:
        result = []
        for disk in disks:
            if disk == exclude:
                continue
            if self.unavailable(disk, row):
                raise UnrecoverableArrayError(
                    f"{self.name}: second failure on disk {disk}")
            result.append(disk)
        return result

    def _read_piece(self, piece: Piece):
        if self.unavailable(piece.disk, piece.row):
            data = yield from self._degraded_read(piece)
            return data
        try:
            data = yield from self._read_unit(piece.disk, piece.lba,
                                              piece.nsectors)
        except (DiskFailedError, TransientDiskError):
            data = yield from self._degraded_read(piece)
        except MediumError:
            # Reconstruct past the latent sectors, then write back.
            data = yield from self._degraded_read(piece)
            yield from self._heal(piece.disk, piece.lba, data)
        return data

    # ------------------------------------------------------------------
    # degraded read: XOR of every other unit in the row
    # ------------------------------------------------------------------
    def _degraded_read(self, piece: Piece):
        self.degraded_reads += 1
        data = yield from self._reconstruct_range(
            piece.row, piece.disk,
            piece.unit_offset // SECTOR_SIZE, piece.nsectors)
        return data

    def _reconstruct_range(self, row: int, failed_disk: int,
                           sector_offset: int, nsectors: int):
        """Process: rebuild ``nsectors`` of ``failed_disk``'s unit in ``row``."""
        others = self._surviving(self._row_disks(row), failed_disk, row)
        lba = self.layout.row_lba(row) + sector_offset
        blocks = yield self.sim.fork(
            [self._read_unit(disk, lba, nsectors) for disk in others])
        parity = yield from self.parity.compute(blocks)
        return parity

    def _reconstruct_rows(self, disk: int, row: int, nrows: int):
        """Process: XOR of the row's survivors (one row per step)."""
        data = yield from self._reconstruct_range(row, disk, 0,
                                                  self.layout.unit_sectors)
        return data

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _write_row(self, row: int, pieces: list[Piece], offset: int,
                   data: memoryview):
        # A row's pieces are consecutive slices of one logical range.
        last = pieces[-1]
        covered = last.logical_offset + last.nbytes - pieces[0].logical_offset
        lock = self._row_lock(row)
        yield lock.acquire()
        try:
            row_bytes = (self.layout.data_units_per_row
                         * self.layout.stripe_unit_bytes)
            if covered == row_bytes:
                yield from self._full_stripe_write(row, pieces, offset,
                                                   data)
            else:
                yield from self._partial_write(row, pieces, covered,
                                               offset, data)
        finally:
            lock.release()
        return None

    def _write_with_parity(self, data_writes, parity_disk: int,
                           parity_lba: int, parity_blocks):
        """Process: run data writes concurrently with the parity
        computation; the parity write starts as soon as the engine
        finishes (the crossbar streamed all three concurrently)."""
        procs = list(data_writes)
        parity_proc = self.sim.process(self.parity.compute(parity_blocks))

        def parity_then_write():
            parity_block = yield parity_proc
            if not self.paths[parity_disk].disk.failed:
                yield from self._data_write(parity_disk, parity_lba,
                                            parity_block)

        procs.append(self.sim.process(parity_then_write()))
        yield self.sim.all_of(procs)
        return None

    def _full_stripe_write(self, row: int, pieces: list[Piece], offset: int,
                           data: memoryview):
        self.full_stripe_writes += 1
        layout = self._layout5
        # The pieces come from map_data, already in logical order.
        unit_payloads = [self._payload_of(piece, offset, data)
                         for piece in pieces]
        parity_disk = layout.parity_disk(row)
        lba = self.layout.row_lba(row)
        data_writes = [
            self.sim.process(self._data_write(piece.disk, piece.lba,
                                              payload))
            for piece, payload in zip(pieces, unit_payloads)
            if not self.paths[piece.disk].disk.failed
        ]
        yield from self._write_with_parity(data_writes, parity_disk, lba,
                                           unit_payloads)
        return None

    def _partial_write(self, row: int, pieces: list[Piece], covered: int,
                       offset: int, data: memoryview):
        if self._row_degraded(row):
            parity_failed = self.unavailable(self._layout5.parity_disk(row),
                                             row)
            target_failed = any(self.unavailable(p.disk, row)
                                for p in pieces)
            if parity_failed and target_failed:
                raise UnrecoverableArrayError(
                    f"{self.name}: write to row {row} lost both a data "
                    "disk and the parity disk")
            if parity_failed:
                # No parity to maintain: just write the surviving data.
                yield self.sim.fork([
                    self._data_write(p.disk, p.lba,
                                     self._payload_of(p, offset, data))
                    for p in pieces])
            else:
                yield from self._degraded_row_write(row, pieces, offset,
                                                    data)
            return None
        # Choose the cheaper healthy-path update: the classic
        # read-modify-write touches the written extents plus parity,
        # while a reconstruct-write reads only the *untouched* units.
        row_bytes = (self.layout.data_units_per_row
                     * self.layout.stripe_unit_bytes)
        try:
            if covered * 2 > row_bytes:
                yield from self._reconstruct_write(row, pieces, offset, data)
            else:
                yield from self._rmw_write(row, pieces, offset, data)
        except (DiskFailedError, MediumError):
            # A disk died (or surfaced a latent error) under the
            # healthy-path update, before any new data landed on it.
            # Redo the row degraded: any already-spawned sibling writes
            # carry identical bytes, so the redo is idempotent.
            yield from self._degraded_row_write(row, pieces, offset, data)
        return None

    def _row_degraded(self, row: int) -> bool:
        """True when any disk's unit of ``row`` is :meth:`unavailable`
        (every disk holds one): one pass over the drives and the
        rebuild frontiers."""
        for path in self.paths:
            drive = path.disk
            if drive.failed or drive.replacement:
                return True
        for frontier in self._rebuild_frontier.values():
            if row >= frontier:
                return True
        return False

    def _rmw_write(self, row: int, pieces: list[Piece], offset: int,
                   data: memoryview):
        """The classic four-access small write.

        Reads the old data and the old parity over the union of the
        written intra-unit ranges, computes ``new parity = old parity
        XOR old data XOR new data``, then writes new data and parity.
        """
        self.rmw_writes += 1
        layout = self._layout5
        parity_disk = layout.parity_disk(row)
        lo = min(piece.unit_offset for piece in pieces)
        hi = max(piece.unit_offset + piece.nbytes for piece in pieces)
        parity_lba = self.layout.row_lba(row) + lo // SECTOR_SIZE
        parity_sectors = (hi - lo) // SECTOR_SIZE

        reads = [self._read_unit(piece.disk, piece.lba, piece.nsectors)
                 for piece in pieces]
        reads.append(self._read_unit(parity_disk, parity_lba, parity_sectors))
        old_values = yield self.sim.fork(reads)
        old_data, old_parity = old_values[:-1], old_values[-1]

        # Build equal-length delta blocks over [lo, hi) and XOR them
        # with the old parity; the parity computer charges the engine
        # traffic for the combination.
        deltas = []
        for piece, old in zip(pieces, old_data):
            new = self._payload_of(piece, offset, data)
            delta = bytearray(hi - lo)
            at = piece.unit_offset - lo
            delta[at:at + piece.nbytes] = xor_blocks([old, new])
            deltas.append(delta)

        data_writes = [self.sim.process(
            self._data_write(piece.disk, piece.lba,
                             self._payload_of(piece, offset, data)))
            for piece in pieces]
        yield from self._write_with_parity(
            data_writes, parity_disk, parity_lba, [old_parity] + deltas)
        return None

    def _reconstruct_write(self, row: int, pieces: list[Piece], offset: int,
                           data: memoryview):
        """Large partial-row write: read the untouched units, compute
        fresh parity over the whole row, write the new data and parity.

        Cheaper than RMW when the write covers more than half the row —
        the case for big requests that straddle a row boundary.
        """
        self.reconstruct_writes += 1
        layout = self._layout5
        unit = self.layout.stripe_unit_bytes
        parity_disk = layout.parity_disk(row)
        lba = self.layout.row_lba(row)
        nsectors = self.layout.unit_sectors

        piece_units = [self._unit_index_in_row(row, piece.disk)
                       for piece in pieces]
        by_unit: dict[int, list[Piece]] = {}
        for k, piece in zip(piece_units, pieces):
            by_unit.setdefault(k, []).append(piece)

        # The new data can start flowing to its disks immediately — the
        # reads needed for parity touch *different* (untouched) disks.
        fully_covered = {
            k for k, unit_pieces in by_unit.items()
            if sum(p.nbytes for p in unit_pieces) == unit
        }
        data_writes = [self.sim.process(
            self._data_write(piece.disk, piece.lba,
                             self._payload_of(piece, offset, data)))
            for k, piece in zip(piece_units, pieces)
            if k in fully_covered]

        fetch_units = [
            k for k in range(self.layout.data_units_per_row)
            if k not in fully_covered
        ]
        old_blocks = yield self.sim.fork(
            [self._read_unit(layout.data_disk(row, k), lba, nsectors)
             for k in fetch_units])

        # Each unit image is built once: a fetched unit is its old
        # block (copied only to lay new extents over it), a fully
        # covered unit is its new payload.
        images: list = [None] * self.layout.data_units_per_row
        for k, block in zip(fetch_units, old_blocks):
            unit_pieces = by_unit.get(k)
            if unit_pieces:
                block = bytearray(block)
                for piece in unit_pieces:
                    block[piece.unit_offset:piece.unit_offset
                          + piece.nbytes] = self._payload_of(piece, offset,
                                                             data)
            images[k] = block
        for k in fully_covered:
            (piece,) = by_unit[k]  # a request maps to one piece per unit
            images[k] = self._payload_of(piece, offset, data)

        # Partially-covered units rewrite their new extents now that
        # their old contents have been captured.
        data_writes += [self.sim.process(
            self._data_write(piece.disk, piece.lba,
                             self._payload_of(piece, offset, data)))
            for k, piece in zip(piece_units, pieces)
            if k not in fully_covered]
        yield from self._write_with_parity(data_writes, parity_disk, lba,
                                           images)
        return None

    def _degraded_row_write(self, row: int, pieces: list[Piece], offset: int,
                            data: memoryview):
        """Reconstruct-write: rebuild the whole row image, then rewrite.

        Used whenever any disk in the row is down: old units are
        fetched (reconstructing the failed one through the *old*
        parity), the new data is overlaid, fresh parity is computed
        over the full row, and every surviving changed unit plus the
        parity is written.
        """
        layout = self._layout5
        parity_disk = layout.parity_disk(row)
        lba = self.layout.row_lba(row)
        nsectors = self.layout.unit_sectors

        self.degraded_writes += 1
        units: list[bytes] = []  # old images, kept to skip unchanged units
        for k in range(self.layout.data_units_per_row):
            disk = layout.data_disk(row, k)
            if self.unavailable(disk, row):
                block = yield from self._reconstruct_range(row, disk, 0,
                                                           nsectors)
            else:
                try:
                    block = yield from self._read_unit(disk, lba, nsectors)
                except (DiskFailedError, MediumError):
                    block = yield from self._reconstruct_range(row, disk, 0,
                                                               nsectors)
            units.append(block)

        images = [bytearray(block) for block in units]
        for piece in pieces:
            k = self._unit_index_in_row(row, piece.disk)
            payload = self._payload_of(piece, offset, data)
            images[k][piece.unit_offset:piece.unit_offset + piece.nbytes] = \
                payload
        final = images  # compared/written as-is; disks copy at poke
        parity_block = yield from self.parity.compute(final)

        writes = []
        for k in range(self.layout.data_units_per_row):
            disk = layout.data_disk(row, k)
            if self.paths[disk].disk.failed:
                continue
            if final[k] == units[k]:
                continue  # unchanged unit
            writes.append(self._data_write(disk, lba, final[k]))
        writes.append(self._data_write(parity_disk, lba, parity_block))
        yield self.sim.fork(writes)
        return None

    def _unit_index_in_row(self, row: int, disk: int) -> int:
        """Inverse of ``data_disk``: the data units of a row follow its
        parity disk round-robin."""
        layout = self._layout5
        k = (disk - layout.parity_disk(row) - 1) % layout.num_disks
        if k == layout.data_units_per_row or not 0 <= disk < layout.num_disks:
            raise RaidError(f"disk {disk} holds no data unit in row {row}")
        return k


class Raid3Controller(_BaseController):
    """Sector-interleaved RAID 3 with a dedicated parity disk.

    The entire array is a single server: operations are serialized by
    an array-wide lock, and every operation engages all data disks over
    whole rows (partial rows are read-modify-written).
    """

    #: Rebuild steps take the array lock, so they batch rows.
    _rebuild_chunk_rows = 128

    def __init__(self, sim: Simulator, paths: Sequence,
                 parity_computer=None, name: str = "raid3"):
        capacity = min(path.disk.spec.capacity_bytes for path in paths)
        layout = Raid3Layout(len(paths), capacity)
        super().__init__(sim, paths, layout, name)
        self._layout3 = layout
        self.parity = parity_computer if parity_computer is not None \
            else InstantParity()
        self._array_lock = Resource(sim, capacity=1, name=f"{name}.lock")

    @property
    def row_bytes(self) -> int:
        return self.layout.data_units_per_row * SECTOR_SIZE

    def _row_span(self, offset: int, nbytes: int) -> tuple[int, int]:
        first = offset // self.row_bytes
        last = (offset + nbytes - 1) // self.row_bytes
        return first, last

    def _rebuild_lock(self, row: int) -> Resource:
        return self._array_lock

    def _read_rows(self, first_row: int, last_row: int):
        """Process: read full rows from all data disks; returns buffers."""
        nrows = last_row - first_row + 1
        buffers = yield self.sim.fork(
            [self._read_disk_rows(d, first_row, nrows)
             for d in range(self.layout.data_units_per_row)])
        return buffers

    def _read_disk_rows(self, disk: int, first_row: int, nrows: int):
        """Process: one data disk's share of a row span, healed through
        parity when the disk is down, mid-rebuild or erroring."""
        if not self.unavailable(disk, first_row + nrows - 1):
            try:
                data = yield from self._read_unit(disk, first_row, nrows)
                return data
            except (DiskFailedError, MediumError):
                pass
        self.degraded_reads += 1
        data = yield from self._reconstruct_rows(disk, first_row, nrows)
        return data

    def _reconstruct_rows(self, disk: int, row: int, nrows: int):
        """Process: XOR a missing disk's rows from the others + parity."""
        others = [d for d in range(self.layout.num_disks) if d != disk]
        for d in others:
            if self.unavailable(d, row + nrows - 1):
                raise UnrecoverableArrayError(
                    f"{self.name}: second failure on disk {d}")
        blocks = yield self.sim.fork(
            [self._read_unit(d, row, nrows) for d in others])
        data = yield from self.parity.compute(blocks)
        return data

    @staticmethod
    def _interleave(buffers: list[bytes]) -> bytes:
        """Merge per-disk buffers back into logical sector order.

        Vectorized: stacking per-disk (nrows, sector) planes along a
        middle axis yields row-major (row, disk, sector) order, which is
        exactly the logical byte order.
        """
        nrows = len(buffers[0]) // SECTOR_SIZE
        planes = [np.frombuffer(buffer, dtype=np.uint8).reshape(
            nrows, SECTOR_SIZE) for buffer in buffers]
        return np.stack(planes, axis=1).tobytes()

    @staticmethod
    def _deinterleave(data: bytes, ndisks: int) -> list[bytes]:
        """Split logical sector order into per-disk buffers."""
        view = memoryview(data)
        if not view.c_contiguous:  # pragma: no cover - defensive
            view = memoryview(bytes(view))  # lint: disable=SIM004
        nsectors = len(data) // SECTOR_SIZE
        nrows = nsectors // ndisks
        grid = np.frombuffer(view, dtype=np.uint8).reshape(
            nrows, ndisks, SECTOR_SIZE)
        return [grid[:, disk_index, :].tobytes()
                for disk_index in range(ndisks)]

    def read(self, offset: int, nbytes: int):
        """Process: read a logical range (whole rows, one I/O at a time)."""
        self.layout.check_range(offset, nbytes)
        yield self._array_lock.acquire()
        try:
            first, last = self._row_span(offset, nbytes)
            buffers = yield from self._read_rows(first, last)
            logical = self._interleave(buffers)
            start = offset - first * self.row_bytes
            return logical[start:start + nbytes]
        finally:
            self._array_lock.release()

    def write(self, offset: int, data: bytes):
        """Process: write a logical range with whole-row parity."""
        self.layout.check_range(offset, len(data))
        yield self._array_lock.acquire()
        try:
            first, last = self._row_span(offset, len(data))
            span_bytes = (last - first + 1) * self.row_bytes
            start = offset - first * self.row_bytes
            aligned = start == 0 and len(data) == span_bytes
            if aligned:
                logical = data
            else:
                old_buffers = yield from self._read_rows(first, last)
                image = bytearray(self._interleave(old_buffers))
                image[start:start + len(data)] = data
                logical = image  # deinterleave reads it in place
            ndisks = self.layout.data_units_per_row
            buffers = self._deinterleave(logical, ndisks)
            parity = yield from self.parity.compute(buffers)
            writes = [self._data_write(d, first, buffers[d])
                      for d in range(ndisks)]
            writes.append(self._data_write(
                self._layout3.parity_disk(0), first, parity))
            yield self.sim.fork(writes)
            return None
        finally:
            self._array_lock.release()
