"""The Log-Structured File System.

All file data and metadata are appended to the segmented log via the
:class:`~repro.lfs.segment.SegmentWriter`; fixed-location state is
limited to the superblock and the two checkpoint regions.  See the
package docstring for the overall design and
:mod:`repro.lfs.recovery` for mount/roll-forward.

The file system runs against any *device* exposing byte-addressed
``read(offset, nbytes)`` / ``write(offset, data)`` simulation
processes plus ``peek`` and ``capacity_bytes`` — in the full prototype
that device is a :class:`repro.raid.Raid5Controller` over the XBUS
disk paths, so segment flushes become the large sequential full-stripe
array writes that make LFS and RAID 5 such a good match (Section 3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Optional, Union

from repro.errors import (CorruptFileSystemError, DirectoryNotEmptyFsError,
                          FileExistsFsError, FileNotFoundFsError,
                          FileSystemError, IsADirectoryFsError,
                          NotADirectoryFsError)
from repro.hw.specs import LFS_SPEC, LfsSpec
from repro.lfs import blockmap
from repro.lfs import directory as dirmod
from repro.lfs import recovery
from repro.lfs.blockmap import DROOT
from repro.lfs.imap import PENDING, InodeMap
from repro.lfs.ondisk import (ADDRS_PER_BLOCK, BLOCK_SIZE, NULL_ADDR,
                              BlockId, BlockKind, Checkpoint, FileType,
                              Inode, SegmentState, SegmentUsage, Superblock,
                              decode_pointer_block, encode_pointer_block,
                              new_block_id)
from repro.lfs.segment import SegmentWriter
from repro.sim import Simulator

ROOT_INO = 1

_state_of = attrgetter("state")
_DATA = BlockKind.DATA


@dataclass(frozen=True)
class FileAttributes:
    """Result of :meth:`LogStructuredFS.stat`."""

    ino: int
    ftype: FileType
    size: int
    mtime: float
    nlink: int


class LogStructuredFS:
    """Sprite-style LFS over a logical block device."""

    def __init__(self, sim: Simulator, device, spec: LfsSpec = LFS_SPEC,
                 max_inodes: int = 1024, host=None,
                 align_segments_to: Optional[int] = None, name: str = "lfs"):
        self.sim = sim
        self.device = device
        self.spec = spec
        self.host = host
        self.name = name
        self.requested_max_inodes = max_inodes
        #: Byte alignment for segment starts.  Aligning segments to the
        #: underlying array's stripe-row size turns full-segment
        #: flushes into full-stripe writes (no parity reads) — the
        #: LFS/RAID-5 synergy of Section 3.1.
        self.align_segments_to = align_segments_to
        #: Public operations are serialized — the file system runs on a
        #: single-CPU host, as Sprite did.
        self._oplock = None  # created lazily; needs self.sim
        #: Process body charging per-request software overhead: the
        #: host's own ``cpu_work`` when there is a host, so a charge
        #: adds no generator level (or call) of the file system's.
        self._charge = (host.cpu_work if host is not None
                        else partial(_sleep, sim))

        self.sb: Optional[Superblock] = None
        self.imap: Optional[InodeMap] = None
        self.usage: list[SegmentUsage] = []
        self.writer: Optional[SegmentWriter] = None
        self.imap_addrs: list[int] = []
        self.checkpoint_seq = 0
        self.mounted = False

        # volatile caches
        self._inodes: dict[int, Inode] = {}
        self._dirty_inodes: set[int] = set()
        self._chunks: dict[tuple[int, int], list[int]] = {}
        self._dirty_chunks: set[tuple[int, int]] = set()
        #: Read-ahead buffers in XBUS memory: (ino, bidx) -> block
        #: payload, FIFO-evicted; invalidated whenever a block pointer
        #: changes (Section 3.2's prefetch buffers).
        self._readahead: dict[tuple[int, int], bytes] = {}
        self._next_expected: dict[int, int] = {}
        #: Decoded directory contents by inode — the metadata side of
        #: the host cache ("the host memory cache contains metadata",
        #: Section 3.2).  Kept write-through by the namespace ops.
        self._dir_cache: dict[int, dict] = {}

        # statistics
        self.reads_served = 0
        self.writes_served = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.segments_cleaned = 0
        self.readahead_hits = 0
        sim.metrics.expose(name, self, {
            "reads_served": "", "writes_served": "", "bytes_read": "B",
            "bytes_written": "B", "segments_cleaned": "",
            "readahead_hits": ""})

    # ==================================================================
    # lifecycle
    # ==================================================================
    def format(self):
        """Process: initialize an empty volume and mount it."""
        if self.mounted:
            raise FileSystemError("already mounted")
        total_blocks = self.device.capacity_bytes // BLOCK_SIZE
        segment_blocks = self.spec.segment_bytes // BLOCK_SIZE
        imap = InodeMap(self.requested_max_inodes)
        nseg_upper = total_blocks // segment_blocks
        cp_blocks = _checkpoint_blocks_needed(imap.n_blocks, nseg_upper)
        first_segment_block = 1 + 2 * cp_blocks
        if self.align_segments_to is not None:
            align_blocks = -(-self.align_segments_to // BLOCK_SIZE)
            first_segment_block = -(-first_segment_block // align_blocks) \
                * align_blocks
        nsegments = (total_blocks - first_segment_block) // segment_blocks
        if nsegments < 2:
            raise FileSystemError(
                f"device too small: only {nsegments} segments fit")
        self.sb = Superblock(
            block_size=BLOCK_SIZE, segment_blocks=segment_blocks,
            nsegments=nsegments, first_segment_block=first_segment_block,
            checkpoint_blocks=cp_blocks, checkpoint_a=1,
            checkpoint_b=1 + cp_blocks, max_inodes=imap.max_inodes)
        yield from self.device.write(0, self.sb.encode())

        self.imap = imap
        self.imap_addrs = [NULL_ADDR] * imap.n_blocks
        self.usage = [SegmentUsage() for _ in range(nsegments)]
        self.writer = SegmentWriter(
            self.sim, self.device, first_segment_block, segment_blocks,
            self.usage, name=f"{self.name}.log")
        self.checkpoint_seq = 0
        self.mounted = True

        root_ino = self.imap.allocate()
        if root_ino != ROOT_INO:
            raise CorruptFileSystemError(
                f"expected root inode {ROOT_INO}, got {root_ino}")
        root = Inode(ROOT_INO, FileType.DIRECTORY, mtime=self.sim.now)
        self._inodes[ROOT_INO] = root
        self._dirty_inodes.add(ROOT_INO)
        yield from self._rewrite_whole_file(root, dirmod.encode_directory({}))
        yield from self._checkpoint_impl()
        return None

    def mount(self):
        """Process: load the volume, roll the log forward and, if that
        applied any fragment, rebuild segment usage."""
        if self.mounted:
            raise FileSystemError("already mounted")
        sb_block = yield from self.device.read(0, BLOCK_SIZE)
        self.sb = Superblock.decode(sb_block)
        checkpoint = yield from self._read_best_checkpoint()
        self.checkpoint_seq = checkpoint.seq

        self.imap = InodeMap(self.sb.max_inodes)
        self.imap_addrs = list(checkpoint.imap_addrs)
        for index, addr in enumerate(self.imap_addrs):
            if addr != NULL_ADDR:
                data = yield from self.device.read(addr * BLOCK_SIZE,
                                                   BLOCK_SIZE)
                self.imap.load_block(index, data)
        self.usage = checkpoint.usage  # freshly decoded: ours to keep
        self.writer = SegmentWriter(
            self.sim, self.device, self.sb.first_segment_block,
            self.sb.segment_blocks, self.usage,
            next_fragment_seq=checkpoint.next_fragment_seq,
            name=f"{self.name}.log")
        self.mounted = True

        scans = recovery.scan_log(self)
        head = recovery.roll_forward(self, checkpoint, scans)
        if head.segment < self.sb.nsegments:
            self.writer.resume_at(head.segment, head.offset)
        self.writer.next_fragment_seq = head.next_fragment_seq
        if head.next_fragment_seq != checkpoint.next_fragment_seq:
            # Fragments rolled forward: the checkpoint's usage table is
            # stale.  On a clean mount it is exact, and a rebuild would
            # revive cleaned segments (whose stale summaries remain) as
            # dirty.
            recovery.rebuild_usage(self, scans)
        # Note: imap entries updated by roll-forward stay dirty so the
        # next checkpoint persists them.
        return None

    def _read_best_checkpoint(self):
        assert self.sb is not None
        candidates = []
        for base in (self.sb.checkpoint_a, self.sb.checkpoint_b):
            raw = yield from self.device.read(
                base * BLOCK_SIZE, self.sb.checkpoint_blocks * BLOCK_SIZE)
            try:
                candidates.append(Checkpoint.decode(raw))
            except CorruptFileSystemError:
                continue
        if not candidates:
            raise CorruptFileSystemError("no valid checkpoint region")
        return max(candidates, key=lambda cp: cp.seq)

    def crash(self) -> None:
        """Drop every volatile structure (simulates a power failure).

        Unflushed data is lost, exactly as on the real machine; remount
        with a fresh :class:`LogStructuredFS` over the same device.
        """
        self.mounted = False
        self._inodes.clear()
        self._dirty_inodes.clear()
        self._chunks.clear()
        self._dirty_chunks.clear()
        self._readahead.clear()
        self._next_expected.clear()
        self._dir_cache.clear()
        self.writer = None
        self.imap = None

    def unmount(self):
        """Process: checkpoint and detach cleanly."""
        yield from self._checkpoint_impl()
        self.crash()
        return None

    # ==================================================================
    # flushing and checkpointing
    # ==================================================================
    def _sync_impl(self):
        """Process: push all dirty metadata and the open fragment to disk."""
        yield from self._flush_metadata()
        yield from self.writer.flush()
        return None

    def _checkpoint_impl(self):
        """Process: sync, write the imap, and commit a checkpoint region."""
        self._require_mounted()
        yield from self._flush_metadata()
        for index in sorted(self.imap.dirty_blocks):
            addr = yield from self.writer.append(
                BlockId(BlockKind.IMAP, 0, index),
                self.imap.encode_block(index))
            self._move_live(self.imap_addrs[index], addr)
            self.imap_addrs[index] = addr
        self.imap.dirty_blocks.clear()
        yield from self.writer.flush()

        head_segment = self.writer.current_segment
        if head_segment is None:
            head_segment = self.sb.nsegments  # sentinel: allocate fresh
            head_offset = 0
        else:
            head_offset = self.writer.offset
        checkpoint = Checkpoint(
            seq=self.checkpoint_seq + 1,
            next_fragment_seq=self.writer.next_fragment_seq,
            head_segment=head_segment, head_offset=head_offset,
            imap_addrs=self.imap_addrs, usage=self.usage)
        region = (self.sb.checkpoint_a if checkpoint.seq % 2
                  else self.sb.checkpoint_b)
        # Encoded before the write yields: the live tables are the cut.
        yield from self.device.write(
            region * BLOCK_SIZE, checkpoint.encode(self.sb.checkpoint_blocks))
        self.checkpoint_seq = checkpoint.seq
        return None

    def _flush_metadata(self):
        """Process: log dirty pointer blocks (leaves, then double-indirect
        roots), then dirty inodes, updating the imap."""
        dirty = self._dirty_chunks
        # Roots go second, as logging a leaf dirties its root; by then
        # they are the only dirty chunks left.
        for roots in (False, True):
            for key in sorted(dirty):
                ino, chunk_index = key
                if (chunk_index == DROOT) != roots:
                    continue
                addr = yield from self.writer.append(
                    BlockId(BlockKind.DINDIRECT, ino, 0) if roots
                    else BlockId(BlockKind.INDIRECT, ino, chunk_index),
                    encode_pointer_block(self._chunks[key]))
                inode = (self._inodes.get(ino)
                         or (yield from self._load_inode(ino)))
                droot = ((yield from self._load_chunk(inode, DROOT))
                         if chunk_index > 0 else None)
                self._move_live(
                    blockmap.set_root(inode, chunk_index, droot, addr), addr)
                if chunk_index > 0:
                    dirty.add((ino, DROOT))
                else:
                    self._dirty_inodes.add(ino)
                dirty.discard(key)

        for ino in sorted(self._dirty_inodes):
            inode = self._inodes[ino]
            addr = yield from self.writer.append(
                BlockId(BlockKind.INODE, ino, 0), inode.encode())
            old = self.imap.get(ino)
            self._move_live(old, addr)
            self.imap.set(ino, addr)
        self._dirty_inodes.clear()
        return None

    # ==================================================================
    # segment-usage accounting
    # ==================================================================
    def _move_live(self, old: int, new: int) -> None:
        """Move one block's live claim from log address ``old`` to
        ``new``; NULL_ADDR and PENDING hold none."""
        if old == new:
            return
        sb = self.sb
        first, blocks = sb.first_segment_block, sb.segment_blocks
        if old != NULL_ADDR and old != PENDING:
            entry = self.usage[(old - first) // blocks]
            entry.live_bytes -= BLOCK_SIZE
            if entry.live_bytes < 0:
                raise CorruptFileSystemError(
                    "segment usage accounting went negative")
        if new != NULL_ADDR and new != PENDING:
            self.usage[(new - first) // blocks].live_bytes += BLOCK_SIZE

    # ==================================================================
    # inode and pointer-block access
    # ==================================================================
    # Resident metadata resolves without a generator: the request path
    # tries ``_inodes``/``_chunks`` (or ``blockmap.addrs``/``put_addr``)
    # first, and the generators below run only on a miss, so the
    # device reads they make are the only scheduling they do.
    def _load_inode(self, ino: int):
        """Process: fetch an inode (cache, then log)."""
        cached = self._inodes.get(ino)
        if cached is not None:
            return cached
        addr = self.imap.get(ino)
        if addr == NULL_ADDR:
            raise FileNotFoundFsError(f"inode {ino} is not allocated")
        if addr == PENDING:
            raise CorruptFileSystemError(
                f"inode {ino} pending but missing from the cache")
        block = yield from self.device.read(addr * BLOCK_SIZE, BLOCK_SIZE)
        inode = Inode.decode(block)
        self._inodes[ino] = inode
        return inode

    def _load_chunk(self, inode: Inode, chunk_index: int):
        """Process: fetch pointer block ``chunk_index`` of ``inode`` (see
        :mod:`repro.lfs.blockmap`) into the resident map."""
        key = (inode.ino, chunk_index)
        cached = self._chunks.get(key)
        if cached is not None:
            return cached
        droot = ((yield from self._load_chunk(inode, DROOT))
                 if chunk_index > 0 else None)
        root = blockmap.chunk_root(inode, chunk_index, droot)
        if root == NULL_ADDR:
            chunk = [NULL_ADDR] * ADDRS_PER_BLOCK
        else:
            block = yield from self.device.read(root * BLOCK_SIZE, BLOCK_SIZE)
            chunk = decode_pointer_block(block)
        self._chunks[key] = chunk
        return chunk

    def _load_addrs(self, inode: Inode, first: int, last: int):
        """Process: ``blockmap.addrs`` over the resident map, first
        loading in block order each pointer block it lacks."""
        chunks = self._chunks
        for bidx in range(first, last + 1):
            if blockmap.addrs(chunks, inode, bidx, bidx) is None:
                yield from self._load_chunk(inode, blockmap.chunk_of(bidx))
        return blockmap.addrs(chunks, inode, first, last)

    def _set_addr(self, inode: Inode, bidx: int, addr: int):
        """Process: the miss path of ``blockmap.put_addr``: load the
        pointer block of ``bidx``, then point the block at ``addr``."""
        yield from self._load_chunk(inode, blockmap.chunk_of(bidx))
        blockmap.put_addr(self, inode, bidx, addr)

    # ==================================================================
    # data path
    # ==================================================================
    def _read_block(self, inode: Inode, bidx: int):
        """Process: fetch one whole file block (zeros if unwritten).

        The pointer is resolved first: a NULL pointer means the block
        does not exist *now*, even if a stale buffered payload for the
        same identity lingers in the segment buffer (e.g. written, then
        truncated away before any flush).
        """
        addr = (blockmap.addrs(self._chunks, inode, bidx, bidx)
                or (yield from self._load_addrs(inode, bidx, bidx)))[0]
        if addr == NULL_ADDR:
            return bytes(BLOCK_SIZE)
        writer = self.writer
        position = writer.pending_index.get((_DATA, inode.ino, bidx))
        if position is not None:
            return writer.pending[position][1]
        data = yield from self.device.read(addr * BLOCK_SIZE, BLOCK_SIZE)
        return data

    def _write_inode_data(self, inode: Inode, offset: int, data: bytes):
        """Process: append ``data`` at ``offset`` of ``inode``'s file."""
        if offset < 0:
            raise FileSystemError(f"negative offset {offset}")
        end = offset + len(data)
        first = offset // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE if data else first - 1
        view = memoryview(data)
        ino = inode.ino
        writer = self.writer
        for bidx in range(first, last + 1):
            block_start = bidx * BLOCK_SIZE
            lo = max(offset, block_start)
            hi = min(end, block_start + BLOCK_SIZE)
            piece: Union[memoryview, bytearray] = view[lo - offset:hi - offset]
            if hi - lo < BLOCK_SIZE:
                old = yield from self._read_block(inode, bidx)
                merged = bytearray(old)
                merged[lo - block_start:hi - block_start] = piece
                piece = merged
            block_id = new_block_id((_DATA, ino, bidx))
            addr = writer.add(block_id, piece)
            if addr is None:
                addr = yield from writer.append(block_id, piece)
            if not blockmap.put_addr(self, inode, bidx, addr):
                yield from self._set_addr(inode, bidx, addr)
        inode.size = max(inode.size, end)
        inode.mtime = self.sim.now
        self._dirty_inodes.add(inode.ino)
        self.bytes_written += len(data)
        return None

    def _read_inode_data(self, inode: Inode, offset: int, nbytes: int):
        """Process: read up to ``nbytes`` at ``offset`` (clamped to EOF).

        Sequential access triggers read-ahead: up to
        ``spec.readahead_blocks`` extra blocks are fetched in the same
        (coalesced) device operations and parked in the XBUS prefetch
        buffers, so the next small sequential read is served from
        memory.
        """
        if offset < 0 or nbytes < 0:
            raise FileSystemError("negative offset or length")
        if offset >= inode.size or nbytes == 0:
            return b""
        nbytes = min(nbytes, inode.size - offset)
        first = offset // BLOCK_SIZE
        last = (offset + nbytes - 1) // BLOCK_SIZE

        ino = inode.ino
        buffers = self._readahead
        fetch_last = last
        readahead = self.spec.readahead_blocks
        if (readahead and self._next_expected.get(ino) == first
                and not all((ino, bidx) in buffers
                            for bidx in range(first, last + 1))):
            # Sequential, and the prefetch buffers ran dry: fetch a
            # whole window ahead.  Fetching while they still hold the
            # request would make every request pay a device round trip
            # for the marginal blocks.
            max_block = (inode.size - 1) // BLOCK_SIZE
            fetch_last = min(last + readahead, max_block)
        self._next_expected[ino] = last + 1

        # Resolve every block in one pass: segment-buffer payloads and
        # read-ahead hits come from memory, holes stay zero, and
        # on-disk blocks are coalesced into extents so sequential files
        # become a few large array reads.
        addrs = (blockmap.addrs(self._chunks, inode, first, fetch_last)
                 or (yield from self._load_addrs(inode, first, fetch_last)))
        pending_index = self.writer.pending_index
        pending = self.writer.pending
        payloads: list[tuple[int, bytes]] = []  # (slot, payload)
        extents: list[list[int]] = []  # [slot, addr, nblocks]
        extent: list[int] = [0, NULL_ADDR, 0]
        for slot, addr in enumerate(addrs):
            if addr == NULL_ADDR:
                continue
            bidx = first + slot
            position = pending_index.get((_DATA, ino, bidx))
            if position is not None:
                payloads.append((slot, pending[position][1]))
                continue
            buffered = buffers.get((ino, bidx))
            if buffered is not None:
                self.readahead_hits += 1
                payloads.append((slot, buffered))
                continue
            count = extent[2]
            if extent[1] + count == addr and extent[0] + count == slot:
                extent[2] = count + 1
            else:
                extent = [slot, addr, 1]
                extents.append(extent)

        extent_data = yield self.sim.fork([
            self.device.read(addr * BLOCK_SIZE, count * BLOCK_SIZE)
            for _slot, addr, count in extents])

        nblocks = fetch_last - first + 1
        if len(extents) == 1 and extents[0][2] == nblocks:
            # One device read covers every block: no assembly copy.
            whole = memoryview(extent_data[0])
        else:
            assembled = bytearray(nblocks * BLOCK_SIZE)
            for slot, payload in payloads:
                assembled[slot * BLOCK_SIZE:(slot + 1) * BLOCK_SIZE] = payload
            for (slot, _addr, count), data in zip(extents, extent_data):
                assembled[slot * BLOCK_SIZE:(slot + count) * BLOCK_SIZE] = data
            whole = memoryview(assembled)

        # Park the blocks beyond the request in the prefetch buffers,
        # FIFO-evicted.  memoryview slices keep each copy single
        # (bytes-of-slice on a bytearray would slice-copy first and
        # bytes-copy second).
        cap = max(2 * readahead, 8)
        for bidx in range(last + 1, fetch_last + 1):
            at = (bidx - first) * BLOCK_SIZE
            buffers[(ino, bidx)] = bytes(  # lint: disable=SIM004
                whole[at:at + BLOCK_SIZE])
            while len(buffers) > cap:
                del buffers[next(iter(buffers))]

        start = offset - first * BLOCK_SIZE
        self.bytes_read += nbytes
        # The caller owns the result: one copy out of the assembly
        # buffer is the API boundary.
        return bytes(whole[start:start + nbytes])  # lint: disable=SIM004

    # ==================================================================
    # public data API
    # ==================================================================
    def _write_impl(self, path: str, offset: int, data: bytes):
        """Process: write ``data`` at ``offset`` of the file at ``path``."""
        yield from self._charge(self.spec.small_write_overhead_s)
        inode = yield from self._resolve_file(path)
        yield from self._write_inode_data(inode, offset, data)
        self.writes_served += 1
        return None

    def _read_impl(self, path: str, offset: int, nbytes: int):
        """Process: read up to ``nbytes`` at ``offset``; returns bytes."""
        yield from self._charge(self.spec.fs_overhead_s)
        inode = yield from self._resolve_file(path)
        data = yield from self._read_inode_data(inode, offset, nbytes)
        self.reads_served += 1
        return data

    def _truncate_impl(self, path: str, new_size: int = 0):
        """Process: shrink (or zero-extend) the file at ``path``."""
        inode = yield from self._resolve_file(path)
        yield from self._truncate_inode(inode, new_size)
        return None

    def _truncate_inode(self, inode: Inode, new_size: int):
        if new_size < 0:
            raise FileSystemError(f"negative size {new_size}")
        if new_size < inode.size:
            first_dead = -(-new_size // BLOCK_SIZE)
            last = (inode.size - 1) // BLOCK_SIZE
            addrs = (blockmap.addrs(self._chunks, inode, first_dead, last)
                     or (yield from self._load_addrs(inode, first_dead, last)))
            for bidx, addr in enumerate(addrs, first_dead):
                if addr != NULL_ADDR:
                    blockmap.put_addr(self, inode, bidx, NULL_ADDR)
            # Zero the tail of the (kept) final partial block, so that a
            # later size-extending write cannot resurrect stale bytes
            # from beyond the truncated EOF.
            cut = new_size % BLOCK_SIZE
            if cut:
                bidx = new_size // BLOCK_SIZE
                addr = (blockmap.addrs(self._chunks, inode, bidx, bidx)
                        or (yield from self._load_addrs(inode, bidx, bidx)))[0]
                if addr != NULL_ADDR:
                    old = yield from self._read_block(inode, bidx)
                    # ``old`` may be a pending memoryview payload, which
                    # does not support ``+`` — copy the kept prefix.
                    cleared = (bytes(old[:cut])  # lint: disable=SIM004
                               + bytes(BLOCK_SIZE - cut))
                    new_addr = yield from self.writer.append(
                        BlockId(_DATA, inode.ino, bidx), cleared)
                    if not blockmap.put_addr(self, inode, bidx, new_addr):
                        yield from self._set_addr(inode, bidx, new_addr)
        inode.size = new_size
        inode.mtime = self.sim.now
        self._dirty_inodes.add(inode.ino)
        return None

    def _rewrite_whole_file(self, inode: Inode, payload: bytes):
        """Process: replace a file's entire contents (used for dirs)."""
        yield from self._write_inode_data(inode, 0, payload)
        if inode.size > len(payload):
            yield from self._truncate_inode(inode, len(payload))
        inode.size = len(payload)
        return None

    # ==================================================================
    # namespace
    # ==================================================================
    def _resolve_file(self, path: str):
        ino, ftype = yield from self._lookup(path)
        if ftype != FileType.REGULAR:
            raise IsADirectoryFsError(f"{path} is a directory")
        inode = self._inodes.get(ino) or (yield from self._load_inode(ino))
        return inode

    def _lookup(self, path: str):
        """Process: resolve a path to (ino, ftype)."""
        components = dirmod.split_path(path)
        ino, ftype = ROOT_INO, FileType.DIRECTORY
        for component in components:
            if ftype != FileType.DIRECTORY:
                raise NotADirectoryFsError(
                    f"{component!r} reached through a non-directory")
            # The cached directory itself: this walk only reads it.
            entries = (self._dir_cache.get(ino)
                       or (yield from self._read_dir(ino)))
            if component not in entries:
                raise FileNotFoundFsError(path)
            ino, ftype = entries[component]
        return ino, ftype

    def _read_dir(self, ino: int):
        cached = self._dir_cache.get(ino)
        if cached is not None:
            return dict(cached)
        inode = yield from self._load_inode(ino)
        if inode.ftype != FileType.DIRECTORY:
            raise NotADirectoryFsError(f"inode {ino} is not a directory")
        payload = yield from self._read_inode_data(inode, 0, inode.size)
        entries = dirmod.decode_directory(payload)
        self._dir_cache[ino] = dict(entries)
        return entries

    def _write_dir(self, dir_inode: Inode, entries):
        """Process: persist a directory and keep the cache coherent."""
        yield from self._rewrite_whole_file(
            dir_inode, dirmod.encode_directory(entries))
        self._dir_cache[dir_inode.ino] = dict(entries)
        return None

    def _parent_of(self, path: str):
        components = dirmod.split_path(path)
        if not components:
            raise FileSystemError("the root directory has no parent")
        parent_path = "/" + "/".join(components[:-1])
        ino, ftype = yield from self._lookup(parent_path)
        if ftype != FileType.DIRECTORY:
            raise NotADirectoryFsError(parent_path)
        return ino, components[-1]

    def _create_node(self, path: str, ftype: FileType):
        yield from self._charge(self.spec.fs_overhead_s)
        parent_ino, name = yield from self._parent_of(path)
        entries = yield from self._read_dir(parent_ino)
        if name in entries:
            raise FileExistsFsError(path)
        ino = self.imap.allocate()
        inode = Inode(ino, ftype, mtime=self.sim.now)
        self._inodes[ino] = inode
        self._dirty_inodes.add(ino)
        if ftype == FileType.DIRECTORY:
            yield from self._write_dir(inode, {})
        entries[name] = (ino, ftype)
        parent = yield from self._load_inode(parent_ino)
        yield from self._write_dir(parent, entries)
        return ino

    def _create_impl(self, path: str):
        """Process: create an empty regular file; returns its inode no."""
        ino = yield from self._create_node(path, FileType.REGULAR)
        return ino

    def _mkdir_impl(self, path: str):
        """Process: create an empty directory; returns its inode no."""
        ino = yield from self._create_node(path, FileType.DIRECTORY)
        return ino

    def _readdir_impl(self, path: str):
        """Process: list a directory; returns {name: (ino, ftype)}."""
        yield from self._charge(self.spec.fs_overhead_s)
        ino, ftype = yield from self._lookup(path)
        if ftype != FileType.DIRECTORY:
            raise NotADirectoryFsError(path)
        entries = yield from self._read_dir(ino)
        return entries

    def _stat_impl(self, path: str):
        """Process: file attributes for ``path``."""
        ino, _ftype = yield from self._lookup(path)
        inode = yield from self._load_inode(ino)
        return FileAttributes(inode.ino, inode.ftype, inode.size,
                              inode.mtime, inode.nlink)

    def _exists_impl(self, path: str):
        """Process: True if ``path`` resolves."""
        try:
            yield from self._lookup(path)
            return True
        except FileNotFoundFsError:
            return False

    def _unlink_impl(self, path: str):
        """Process: remove a regular file and free its blocks."""
        yield from self._charge(self.spec.fs_overhead_s)
        yield from self._remove(path, expect=FileType.REGULAR)
        return None

    def _rmdir_impl(self, path: str):
        """Process: remove an empty directory."""
        yield from self._charge(self.spec.fs_overhead_s)
        ino, ftype = yield from self._lookup(path)
        if ftype != FileType.DIRECTORY:
            raise NotADirectoryFsError(path)
        entries = yield from self._read_dir(ino)
        if entries:
            raise DirectoryNotEmptyFsError(path)
        yield from self._remove(path, expect=FileType.DIRECTORY)
        return None

    def _rename_impl(self, old_path: str, new_path: str):
        """Process: move a file or directory to a new name/parent.

        Overwrites an existing regular file at the destination (the
        POSIX contract); refuses to replace directories or to move a
        directory into itself.
        """
        yield from self._charge(self.spec.fs_overhead_s)
        old_parent_ino, old_name = yield from self._parent_of(old_path)
        old_entries = yield from self._read_dir(old_parent_ino)
        if old_name not in old_entries:
            raise FileNotFoundFsError(old_path)
        ino, ftype = old_entries[old_name]

        if ftype == FileType.DIRECTORY:
            old_components = dirmod.split_path(old_path)
            new_components = dirmod.split_path(new_path)
            if new_components[:len(old_components)] == old_components:
                raise FileSystemError(
                    f"cannot move {old_path} inside itself")

        new_parent_ino, new_name = yield from self._parent_of(new_path)
        new_entries = yield from self._read_dir(new_parent_ino)
        replaced = new_entries.get(new_name)
        if replaced is not None:
            replaced_ino, replaced_type = replaced
            if replaced_ino == ino:
                return None  # renaming onto itself
            if replaced_type == FileType.DIRECTORY or \
                    ftype == FileType.DIRECTORY:
                raise FileExistsFsError(new_path)
            yield from self._remove(new_path, expect=FileType.REGULAR)
            new_entries = yield from self._read_dir(new_parent_ino)

        if new_parent_ino == old_parent_ino:
            entries = yield from self._read_dir(old_parent_ino)
            del entries[old_name]
            entries[new_name] = (ino, ftype)
            parent = yield from self._load_inode(old_parent_ino)
            yield from self._write_dir(parent, entries)
        else:
            new_entries[new_name] = (ino, ftype)
            new_parent = yield from self._load_inode(new_parent_ino)
            yield from self._write_dir(new_parent, new_entries)
            old_entries = yield from self._read_dir(old_parent_ino)
            del old_entries[old_name]
            old_parent = yield from self._load_inode(old_parent_ino)
            yield from self._write_dir(old_parent, old_entries)
        return None

    def _remove(self, path: str, expect: FileType):
        parent_ino, name = yield from self._parent_of(path)
        entries = yield from self._read_dir(parent_ino)
        if name not in entries:
            raise FileNotFoundFsError(path)
        ino, ftype = entries[name]
        if ftype != expect:
            if expect == FileType.REGULAR:
                raise IsADirectoryFsError(path)
            raise NotADirectoryFsError(path)
        inode = yield from self._load_inode(ino)
        yield from self._truncate_inode(inode, 0)
        # Drop the pointer-block live claims (single indirect, the
        # double-indirect root, and all its children) and the inode.
        if inode.dindirect != NULL_ADDR or (ino, DROOT) in self._chunks:
            droot = yield from self._load_chunk(inode, DROOT)
            for child in droot:
                self._move_live(child, NULL_ADDR)
        for key in [k for k in self._chunks if k[0] == ino]:
            del self._chunks[key]
            self._dirty_chunks.discard(key)
        for key in [k for k in self._readahead if k[0] == ino]:
            del self._readahead[key]
        self._next_expected.pop(ino, None)
        self._dir_cache.pop(ino, None)
        self._move_live(inode.indirect, NULL_ADDR)
        self._move_live(inode.dindirect, NULL_ADDR)
        self._move_live(self.imap.get(ino), NULL_ADDR)
        self.imap.free(ino)
        self._inodes.pop(ino, None)
        self._dirty_inodes.discard(ino)
        del entries[name]
        parent = yield from self._load_inode(parent_ino)
        yield from self._write_dir(parent, entries)
        return None

    # ==================================================================
    # public API: every operation runs under the op lock, serializing
    # file-system work the way the single-CPU Sprite host did.
    # ==================================================================
    def _locked(self, operation, op: str = "op", nbytes: int = 0):
        """Process: run ``operation`` (a generator) under the op lock,
        once the lock is held and the volume found mounted.

        ``op`` names the public operation in the trace ("lfs.read",
        "lfs.sync"...); the span covers lock wait plus service time,
        matching what a caller of the public API experiences.
        """
        if self._oplock is None:
            self._oplock = _make_oplock(self.sim, self.name)
        yield self._oplock.acquire()
        try:
            self._require_mounted()
            result = yield from operation
            return result
        finally:
            self._oplock.release()

    def read(self, path: str, offset: int, nbytes: int):
        """Process: read up to ``nbytes`` at ``offset``; returns bytes."""
        result = yield from self._locked(
            self._read_impl(path, offset, nbytes), "read", nbytes)
        return result

    def write(self, path: str, offset: int, data: bytes):
        """Process: write ``data`` at ``offset`` of the file at ``path``."""
        result = yield from self._locked(
            self._write_impl(path, offset, data), "write", len(data))
        return result

    def truncate(self, path: str, new_size: int = 0):
        """Process: shrink (or zero-extend) the file at ``path``."""
        result = yield from self._locked(
            self._truncate_impl(path, new_size), "truncate")
        return result

    def create(self, path: str):
        """Process: create an empty regular file; returns its inode no."""
        result = yield from self._locked(self._create_impl(path), "create")
        return result

    def mkdir(self, path: str):
        """Process: create an empty directory; returns its inode no."""
        result = yield from self._locked(self._mkdir_impl(path), "mkdir")
        return result

    def readdir(self, path: str):
        """Process: list a directory; returns {name: (ino, ftype)}."""
        result = yield from self._locked(self._readdir_impl(path), "readdir")
        return result

    def stat(self, path: str):
        """Process: file attributes for ``path``."""
        result = yield from self._locked(self._stat_impl(path), "stat")
        return result

    def exists(self, path: str):
        """Process: True if ``path`` resolves."""
        result = yield from self._locked(self._exists_impl(path), "exists")
        return result

    def unlink(self, path: str):
        """Process: remove a regular file and free its blocks."""
        result = yield from self._locked(self._unlink_impl(path), "unlink")
        return result

    def rmdir(self, path: str):
        """Process: remove an empty directory."""
        result = yield from self._locked(self._rmdir_impl(path), "rmdir")
        return result

    def rename(self, old_path: str, new_path: str):
        """Process: move a file or directory (replaces a plain file)."""
        result = yield from self._locked(
            self._rename_impl(old_path, new_path), "rename")
        return result

    def sync(self):
        """Process: push dirty metadata and the open fragment to disk."""
        result = yield from self._locked(self._sync_impl(), "sync")
        return result

    def checkpoint(self):
        """Process: sync, write the imap, commit a checkpoint region."""
        result = yield from self._locked(self._checkpoint_impl(),
                                         "checkpoint")
        return result

    # ==================================================================
    # cleaning
    # ==================================================================
    def clean(self, max_segments: int = 1, policy=None):
        """Process: run the segment cleaner; returns reclaimed segments."""
        from repro.lfs import cleaner as cleaner_mod

        if policy is None:
            policy = cleaner_mod.CleanerPolicy.COST_BENEFIT
        victims = yield from cleaner_mod.clean(self, max_segments, policy)
        return victims

    # ==================================================================
    # utilities
    # ==================================================================
    def _require_mounted(self) -> None:
        if not self.mounted:
            raise FileSystemError("file system is not mounted")

    def free_segments(self) -> int:
        # Counted in C: callers poll this after every request.
        return list(map(_state_of, self.usage)).count(SegmentState.CLEAN)

    def statfs(self) -> dict:
        """Instant summary of log occupancy."""
        return {
            "segments": len(self.usage),
            "clean_segments": self.free_segments(),
            "live_bytes": sum(entry.live_bytes for entry in self.usage),
            "segments_cleaned": self.segments_cleaned,
            "fragments_flushed": (self.writer.fragments_flushed
                                  if self.writer else 0),
        }


def _sleep(sim: Simulator, seconds: float):
    """Process: charge ``seconds`` of overhead without a host."""
    if seconds > 0:
        yield sim.timeout(seconds)
    return None


def _make_oplock(sim: Simulator, name: str):
    from repro.sim import Resource

    return Resource(sim, capacity=1, name=f"{name}.oplock")


def _checkpoint_blocks_needed(n_imap_blocks: int, nsegments: int) -> int:
    """Blocks one checkpoint region needs for the given geometry."""
    header = 56
    size = header + 8 * n_imap_blocks + 17 * nsegments + 4
    return max(1, math.ceil(size / BLOCK_SIZE))
