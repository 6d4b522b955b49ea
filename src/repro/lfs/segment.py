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

from typing import Optional

from repro.errors import NoSpaceFsError
from repro.lfs.ondisk import (BLOCK_SIZE, MAX_FRAGMENT_PAYLOAD, BlockId,
                              FragmentSummary, SegmentState,
                              payload_checksum_parts)


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
        #: Open fragment: position of its (reserved) summary block,
        #: or None when no fragment is open.
        self._fragment_start: Optional[int] = None
        self._pending: list[tuple[BlockId, bytes]] = []
        self._pending_index: dict[BlockId, int] = {}

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

    def addr_of_pending(self, position: int) -> int:
        assert self._fragment_start is not None
        assert self.current_segment is not None
        return (self.segment_base(self.current_segment)
                + self._fragment_start + 1 + position)

    def pending_payload(self, block_id: BlockId) -> Optional[bytes]:
        """Buffered (unflushed) payload for ``block_id``, if any."""
        position = self._pending_index.get(block_id)
        if position is None:
            return None
        return self._pending[position][1]

    @property
    def pending_count(self) -> int:
        return len(self._pending)

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

    def append(self, block_id: BlockId, payload: bytes):
        """Process: append one block; returns its assigned address.

        Flushes automatically when the current segment (or the summary
        capacity) fills, so a single call may perform device I/O.
        """
        if len(payload) > BLOCK_SIZE:
            raise NoSpaceFsError(
                f"payload of {len(payload)} bytes exceeds the block size")
        if len(payload) < BLOCK_SIZE:
            # Short payloads (metadata, file tails) are padded into a
            # fresh block; full blocks pass through as zero-copy views.
            payload = (bytes(payload)  # lint: disable=SIM004
                       + bytes(BLOCK_SIZE - len(payload)))

        # Replace in place if this identity is already pending.
        position = self._pending_index.get(block_id)
        if position is not None:
            self._pending[position] = (block_id, payload)
            return self.addr_of_pending(position)

        if len(self._pending) >= MAX_FRAGMENT_PAYLOAD:
            yield from self.flush()

        if self.current_segment is None:
            self.current_segment = self._allocate_segment()
            self.offset = 0
        # Need room for the summary (if opening a fragment) + the block.
        needed = 1 if self._fragment_start is not None else 2
        if self.offset + needed > self.segment_blocks:
            yield from self.flush()
            if self.current_segment is None:
                self.current_segment = self._allocate_segment()
                self.offset = 0
        if self._fragment_start is None:
            self._fragment_start = self.offset
            self.offset += 1  # reserve the summary slot

        position = len(self._pending)
        self._pending.append((block_id, payload))
        self._pending_index[block_id] = position
        self.offset += 1
        self.blocks_appended += 1
        return self.addr_of_pending(position)

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
        if self._fragment_start is None or not self._pending:
            return None
        segment = self.current_segment
        assert segment is not None
        base = self.segment_base(segment)
        # Checksum the pending views in place and join summary + payload
        # in one pass: the only assembly copy on the flush path (the
        # device slices views of this buffer from here down).
        parts = [data for _id, data in self._pending]
        payload_bytes = sum(len(part) for part in parts)
        summary = FragmentSummary(
            seq=self.next_fragment_seq, segment=segment,
            entries=tuple(block_id for block_id, _data in self._pending),
            payload_crc=payload_checksum_parts(parts))

        yield from self.device.write(
            (base + self._fragment_start) * BLOCK_SIZE,
            b"".join([summary.encode(), *parts]))

        entry = self.usage[segment]
        entry.last_seq = self.next_fragment_seq
        self.next_fragment_seq += 1
        self.fragments_flushed += 1
        self.bytes_flushed += payload_bytes + BLOCK_SIZE

        self._pending.clear()
        self._pending_index.clear()
        self._fragment_start = None
        # Retire the segment when it cannot host another fragment.
        if self.offset + 2 > self.segment_blocks:
            entry.state = SegmentState.DIRTY
            self.current_segment = None
            self.offset = 0
        return None
