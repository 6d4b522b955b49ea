"""The segment cleaner (log garbage collector).

The paper's prototype shipped without one ("LFS cleaning ... has not
yet been implemented", Section 3.4); this is the stated missing piece,
implemented with the two classic victim-selection policies from
Rosenblum & Ousterhout:

* **greedy** — always clean the segment with the least live data;
* **cost-benefit** — maximize ``(age * free) / (1 + live)``, which
  prefers old, cold segments even when they hold a bit more live data.

Cleaning a victim reads its summaries, tests each block's liveness
against the resident maps (:func:`repro.lfs.blockmap.is_live`), copies
live *data* blocks back into the head of the log (at normal, timed
append cost), and marks dirty the inodes, pointer blocks and imap
blocks it displaces so the following sync relocates them.  Victims are
only marked clean after the copies are safely flushed, so a crash
mid-clean can never lose data.
"""

from __future__ import annotations

import enum

from repro.errors import FileSystemError
from repro.lfs import blockmap
from repro.lfs.blockmap import DROOT
from repro.lfs.ondisk import (BLOCK_SIZE, NULL_ADDR, BlockId, BlockKind,
                              SegmentState)
from repro.lfs.recovery import scan_segment


class CleanerPolicy(enum.Enum):
    GREEDY = "greedy"
    COST_BENEFIT = "cost-benefit"


def pick_victims(fs, count: int,
                 policy: CleanerPolicy = CleanerPolicy.COST_BENEFIT
                 ) -> list[int]:
    """Choose up to ``count`` dirty segments to clean."""
    current_seq = fs.writer.next_fragment_seq
    scored: list[tuple[float, int]] = []
    segment_bytes = fs.sb.segment_blocks * BLOCK_SIZE
    for segment, entry in enumerate(fs.usage):
        if entry.state != SegmentState.DIRTY:
            continue
        live = entry.live_bytes
        free = segment_bytes - live
        if free <= 0:
            continue
        if policy is CleanerPolicy.GREEDY:
            score = float(free)
        else:
            age = max(1, current_seq - entry.last_seq)
            score = age * free / (1 + live)
        scored.append((score, segment))
    scored.sort(reverse=True)
    return [segment for _score, segment in scored[:count]]


def clean(fs, max_segments: int = 1,
          policy: CleanerPolicy = CleanerPolicy.COST_BENEFIT):
    """Process: clean up to ``max_segments`` victims; returns the list
    of segments reclaimed."""
    if not fs.mounted:
        raise FileSystemError("file system is not mounted")
    reclaimed: list[int] = []
    fs.writer.cleaning = True  # unlock the reserved segments
    try:
        # One victim at a time: each reclamation frees a segment
        # before the next evacuation needs space, so in-flight
        # copies never outgrow the reserve even on a completely
        # full log.
        for _round in range(max_segments):
            victims = pick_victims(fs, 1, policy)
            if not victims:
                break
            victim = victims[0]
            yield from _evacuate(fs, victim)
            # Persist the copies (including relocated imap blocks,
            # which only a checkpoint writes) before reusing it.
            yield from fs.checkpoint()
            entry = fs.usage[victim]
            if entry.live_bytes != 0:
                raise FileSystemError(
                    f"segment {victim} still has {entry.live_bytes} "
                    "live bytes after cleaning")
            entry.state = SegmentState.CLEAN
            fs.segments_cleaned += 1
            reclaimed.append(victim)
    finally:
        fs.writer.cleaning = False
    return reclaimed


def _evacuate(fs, victim: int):
    """Process: move every live block out of ``victim``.

    Liveness and relocation resolve against resident metadata without
    a generator; only a block whose inode or pointer block must first
    be read from the log, or a data block (whose payload is read),
    takes a process path.
    """
    base = fs.writer.segment_base(victim)
    for fragment in scan_segment(fs, victim):
        # One timed read for the summary block itself.
        yield from fs.device.read(
            (base + fragment.start_offset) * BLOCK_SIZE, BLOCK_SIZE)
        addr = base + fragment.start_offset
        for block_id in fragment.summary.entries:
            addr += 1
            live = blockmap.is_live(fs, fs._inodes.get, fs._chunks,
                                    block_id, addr)
            if live is None:
                live = yield from _is_live_timed(fs, block_id, addr)
            if live and not _relocate_resident(fs, block_id):
                yield from _relocate(fs, block_id, addr)
    return None


def _is_live_timed(fs, block_id: BlockId, addr: int):
    """Process: the miss path of ``blockmap.is_live``: read the inode
    and pointer block it lacks through the normal metadata path, then
    decide."""
    kind, ino, index = block_id
    inode = yield from fs._load_inode(ino)
    if kind == BlockKind.INDIRECT and index > 0:
        if inode.dindirect != NULL_ADDR:
            yield from fs._load_chunk(inode, DROOT)
    elif kind == BlockKind.DATA:
        yield from fs._load_addrs(inode, index, index)
    return blockmap.is_live(fs, fs._inodes.get, fs._chunks, block_id, addr)


def _relocate_resident(fs, block_id: BlockId) -> bool:
    """Mark a live metadata block for relocation by the next flush;
    False, changing nothing, for a data block or when the block's
    inode or pointer block is not resident (then :func:`_relocate`)."""
    kind, ino, index = block_id
    if kind == BlockKind.IMAP:
        fs.imap.dirty_blocks.add(index)
        return True
    if kind == BlockKind.DATA or ino not in fs._inodes:
        return False
    if kind == BlockKind.INODE:
        # Re-log the inode at the next metadata flush.
        fs._dirty_inodes.add(ino)
        return True
    key = (ino, DROOT if kind == BlockKind.DINDIRECT else index)
    if key not in fs._chunks:
        return False
    fs._dirty_chunks.add(key)
    return True


def _relocate(fs, block_id: BlockId, addr: int):
    """Process: move one live block to the log head: copy a data block,
    or read the metadata a relocation needs and mark it dirty."""
    kind, ino, index = block_id
    if kind == BlockKind.DATA:
        payload = yield from fs.device.read(addr * BLOCK_SIZE, BLOCK_SIZE)
        inode = fs._inodes.get(ino) or (yield from fs._load_inode(ino))
        new_addr = fs.writer.add(block_id, payload)
        if new_addr is None:
            new_addr = yield from fs.writer.append(block_id, payload)
        if not blockmap.put_addr(fs, inode, index, new_addr):
            yield from fs._set_addr(inode, index, new_addr)
        return None
    inode = yield from fs._load_inode(ino)
    if kind != BlockKind.INODE:
        yield from fs._load_chunk(
            inode, DROOT if kind == BlockKind.DINDIRECT else index)
    _relocate_resident(fs, block_id)
    return None
