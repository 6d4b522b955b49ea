"""The segment writer: the append-only heart of the log.

Blocks appended between flushes form a *fragment*.  A fragment's first
block holds its summary (the commit record) and the payload blocks
follow; ``flush`` writes summary plus payload as one large sequential
device write.  The summary carries a checksum over the payload, so a
crash mid-flush leaves a fragment that fails verification and is
discarded whole by recovery.

Appending assigns the block's final log address immediately (the
position within the open fragment is known), which lets callers wire
pointers before any I/O happens.  Appending an identity that is
already pending *replaces* the buffered payload in place — repeated
small writes to the same block between flushes cost nothing extra,
which is precisely how LFS absorbs small-write traffic (Section 3.1).

When the current segment cannot fit another payload block the open
fragment is flushed and a fresh segment is taken from the clean list,
so a long stream of appends produces full-segment sequential writes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from repro.errors import NoSpaceFsError
from repro.lfs.ondisk import (BLOCK_SIZE, MAX_FRAGMENT_PAYLOAD, BlockId,
                              FragmentSummary, SegmentState,
                              payload_checksum_parts)


_block_id_of = itemgetter(0)
_payload_of = itemgetter(1)


class SegmentWriter:
    """Builds fragments in memory and flushes them to the device."""

    #: Clean segments held back for the cleaner: without a reserve, a
    #: completely full log leaves the cleaner nowhere to copy live data
    #: and the volume deadlocks.
    RESERVED_SEGMENTS = 2

    def __init__(self, sim, device, first_segment_block: int,
                 segment_blocks: int, usage, name: str,
                 next_fragment_seq: int = 1):
        self.sim = sim
        self.device = device
        self.first_segment_block = first_segment_block
        self.segment_blocks = segment_blocks
        self.usage = usage  # list[SegmentUsage], shared with the FS
        self.next_fragment_seq = next_fragment_seq
        #: Set by the cleaner while it runs: grants access to the
        #: reserved segments.
        self.cleaning = False

        self.current_segment: Optional[int] = None
        #: Next free block offset within the current segment.
        self.offset = 0
        #: Open fragment: log address of its (reserved) summary block,
        #: or None when no fragment is open.
        self._summary_addr: Optional[int] = None
        #: The open fragment's blocks, in log order, and each pending
        #: identity's position in that list.  The file system reads the
        #: index directly in its per-block loops.
        self.pending: list[tuple[BlockId, bytes]] = []
        self.pending_index: dict[BlockId, int] = {}

        self.segments_started = 0
        self.fragments_flushed = 0
        self.blocks_appended = 0
        self.bytes_flushed = 0
        sim.metrics.expose(name, self, {
            "segments_started": "", "fragments_flushed": "",
            "blocks_appended": "", "bytes_flushed": "B"})

    # ------------------------------------------------------------------
    # position helpers
    # ------------------------------------------------------------------
    def segment_base(self, segment: int) -> int:
        return self.first_segment_block + segment * self.segment_blocks

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    def resume_at(self, segment: int, offset: int) -> None:
        """Continue logging at a recovered head position."""
        if offset + 2 > self.segment_blocks:
            self.current_segment = None
            self.offset = 0
            return
        self.current_segment = segment
        self.offset = offset
        self.usage[segment].state = SegmentState.CURRENT

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def _allocate_segment(self) -> int:
        clean = [segment for segment, entry in enumerate(self.usage)
                 if entry.state == SegmentState.CLEAN]
        if not self.cleaning and len(clean) <= self.RESERVED_SEGMENTS:
            raise NoSpaceFsError(
                f"log full: {len(clean)} clean segments remain and "
                f"{self.RESERVED_SEGMENTS} are reserved for the cleaner")
        if not clean:
            raise NoSpaceFsError("no clean segments left in the log")
        segment = clean[0]
        entry = self.usage[segment]
        entry.state = SegmentState.CURRENT
        entry.live_bytes = 0
        self.segments_started += 1
        return segment

    def add(self, block_id: BlockId, payload: bytes) -> Optional[int]:
        """Buffer one block without I/O and return its assigned address,
        or None, buffering nothing, when the open fragment must be
        flushed first (see :meth:`append`)."""
        size = len(payload)
        if size != BLOCK_SIZE:
            if size > BLOCK_SIZE:
                raise NoSpaceFsError(
                    f"payload of {size} bytes exceeds the block size")
            # Short payloads (metadata, file tails) are padded into a
            # fresh block; full blocks pass through as zero-copy views.
            payload = (bytes(payload)  # lint: disable=SIM004
                       + bytes(BLOCK_SIZE - size))

        position = self.pending_index.get(block_id)
        if position is not None:
            # Replace in place: this identity is already pending.
            self.pending[position] = (block_id, payload)
        else:
            position = len(self.pending)
            if position >= MAX_FRAGMENT_PAYLOAD:
                return None
            if self.current_segment is None:
                self.current_segment = self._allocate_segment()
                self.offset = 0
            # Need room for the summary (if opening a fragment) + the
            # block.
            if self._summary_addr is None:
                if self.offset + 2 > self.segment_blocks:
                    return None
                self._summary_addr = (self.segment_base(self.current_segment)
                                      + self.offset)
                self.offset += 1  # reserve the summary slot
            elif self.offset + 1 > self.segment_blocks:
                return None
            self.pending.append((block_id, payload))
            self.pending_index[block_id] = position
            self.offset += 1
            self.blocks_appended += 1
        return self._summary_addr + 1 + position

    def append(self, block_id: BlockId, payload: bytes):
        """Process: append one block; returns its assigned address.

        Flushes first when the current segment (or the summary
        capacity) is full, so a call may perform device I/O; callers
        on the request path try :meth:`add` first.
        """
        addr = self.add(block_id, payload)
        if addr is None:
            yield from self.flush()
            addr = self.add(block_id, payload)
        return addr

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self):
        """Process: commit the open fragment as one sequential write.

        Summary block and payload go to the device together — a
        full-segment flush on the RAID-5 array is therefore one
        stripe-aligned write (full-stripe, no parity read).  The
        payload checksum in the summary makes the single write
        atomic-for-recovery: a torn flush fails verification and the
        whole fragment is discarded by roll-forward.
        """
        if self._summary_addr is None or not self.pending:
            return None
        segment = self.current_segment
        assert segment is not None
        # Checksum the pending views in place and join summary + payload
        # in one pass: the only assembly copy on the flush path (the
        # device slices views of this buffer from here down).
        parts = list(map(_payload_of, self.pending))
        payload_bytes = sum(map(len, parts))
        summary = FragmentSummary(
            seq=self.next_fragment_seq, segment=segment,
            entries=tuple(map(_block_id_of, self.pending)),
            payload_crc=payload_checksum_parts(parts))

        yield from self.device.write(
            self._summary_addr * BLOCK_SIZE,
            b"".join([summary.encode(), *parts]))

        entry = self.usage[segment]
        entry.last_seq = self.next_fragment_seq
        self.next_fragment_seq += 1
        self.fragments_flushed += 1
        self.bytes_flushed += payload_bytes + BLOCK_SIZE

        self.pending.clear()
        self.pending_index.clear()
        self._summary_addr = None
        # Retire the segment when it cannot host another fragment.
        if self.offset + 2 > self.segment_blocks:
            entry.state = SegmentState.DIRTY
            self.current_segment = None
            self.offset = 0
        return None
