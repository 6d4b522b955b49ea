"""The segment cleaner (log garbage collector).

The paper's prototype shipped without one ("LFS cleaning ... has not
yet been implemented", Section 3.4); this is the stated missing piece,
implemented with the two classic victim-selection policies from
Rosenblum & Ousterhout:

* **greedy** — always clean the segment with the least live data;
* **cost-benefit** — maximize ``(age * free) / (1 + live)``, which
  prefers old, cold segments even when they hold a bit more live data.

Cleaning a victim reads its summaries, checks each block's identity
against the current maps, copies live *data* blocks back into the head
of the log (at normal, timed append cost), and marks dirty the inodes,
pointer blocks and imap blocks it displaces so the following sync
relocates them.  Victims are only marked clean after the copies are
safely flushed, so a crash mid-clean can never lose data.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import FileSystemError
from repro.lfs.imap import PENDING
from repro.lfs.ondisk import (BLOCK_SIZE, NULL_ADDR, BlockId, BlockKind,
                              SegmentState)
from repro.lfs.recovery import scan_segment

_DROOT = -1


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
    """Process: move every live block out of ``victim``."""
    base = fs.writer.segment_base(victim)
    for fragment in scan_segment(fs, victim):
        # One timed read for the summary block itself.
        yield from fs.device.read(
            (base + fragment.start_offset) * BLOCK_SIZE, BLOCK_SIZE)
        for position, block_id in enumerate(fragment.summary.entries):
            addr = base + fragment.start_offset + 1 + position
            live = yield from _is_live_timed(fs, block_id, addr)
            if not live:
                continue
            yield from _relocate(fs, block_id, addr)
    return None


def _is_live_timed(fs, block_id: BlockId, addr: int):
    """Process: liveness check through the normal (cached) metadata path."""
    kind = block_id.kind
    if kind == BlockKind.IMAP:
        return fs.imap_addrs[block_id.index] == addr
    if kind == BlockKind.INODE:
        return fs.imap.get(block_id.ino) == addr
    imap_addr = fs.imap.get(block_id.ino) \
        if fs.imap.max_inodes > block_id.ino else NULL_ADDR
    if imap_addr == NULL_ADDR and block_id.ino not in fs._inodes:
        return False
    inode = yield from fs._load_inode(block_id.ino)
    if kind == BlockKind.DINDIRECT:
        return inode.dindirect == addr
    if kind == BlockKind.INDIRECT:
        root = yield from _chunk_root(fs, inode, block_id.index)
        return root == addr
    current = yield from fs._get_addr(inode, block_id.index)
    return current == addr


def _chunk_root(fs, inode, chunk_index: int):
    if chunk_index == 0:
        return inode.indirect
    if inode.dindirect == NULL_ADDR and (inode.ino, _DROOT) not in fs._chunks:
        return NULL_ADDR
    droot = yield from fs._load_chunk(inode, _DROOT)
    return droot[chunk_index - 1]


def _relocate(fs, block_id: BlockId, addr: int):
    """Process: move one live block to the log head."""
    kind = block_id.kind
    if kind == BlockKind.DATA:
        payload = yield from fs.device.read(addr * BLOCK_SIZE, BLOCK_SIZE)
        inode = yield from fs._load_inode(block_id.ino)
        new_addr = yield from fs.writer.append(block_id, payload)
        yield from fs._set_addr(inode, block_id.index, new_addr)
        return None
    if kind == BlockKind.INODE:
        # Re-log the inode at the next metadata flush.
        yield from fs._load_inode(block_id.ino)
        fs._dirty_inodes.add(block_id.ino)
        return None
    if kind == BlockKind.INDIRECT:
        inode = yield from fs._load_inode(block_id.ino)
        yield from fs._load_chunk(inode, block_id.index)
        fs._dirty_chunks.add((block_id.ino, block_id.index))
        return None
    if kind == BlockKind.DINDIRECT:
        inode = yield from fs._load_inode(block_id.ino)
        yield from fs._load_chunk(inode, _DROOT)
        fs._dirty_chunks.add((block_id.ino, _DROOT))
        return None
    if kind == BlockKind.IMAP:
        fs.imap.dirty_blocks.add(block_id.index)
        return None
    raise FileSystemError(f"unknown block kind {kind}")
