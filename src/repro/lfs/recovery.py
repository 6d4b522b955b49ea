"""Crash recovery: checkpoint load, roll-forward, usage rebuild.

LFS recovery is fast because only the log tail after the last
checkpoint needs processing — the property the paper highlights
("it takes a few seconds to perform an LFS file system check, compared
with approximately 20 minutes" for a UNIX fsck, Section 3.1).

Mount applies, in order:

1. the newest valid checkpoint region (both regions are tried; a torn
   checkpoint write simply falls back to the older region),
2. **roll-forward**: every complete fragment whose sequence number
   continues the checkpoint's chain re-applies its inode and imap
   updates; the chain stops at the first gap or invalid summary, which
   is exactly the crash point,
3. **usage rebuild**, when roll-forward applied any fragment: segment
   liveness is recomputed from the summaries roll-forward already
   scanned, with the cleaner's test (:func:`repro.lfs.blockmap.is_live`)
   over the recovered maps (our prototype favours a provably correct
   rebuild over Sprite's incremental bookkeeping; volumes here are
   simulator-sized).  A clean mount keeps the checkpoint's usage
   table, which is exact: a rebuild would count a cleaned segment,
   whose stale summaries remain, as dirty.

A mount peeks each segment's summaries once (:func:`scan_log`), and
the rebuild decodes each inode and pointer block once (through a
:class:`repro.lfs.blockmap.LogPeek`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptFileSystemError
from repro.lfs.blockmap import LogPeek, is_live
from repro.lfs.fs_types import LogHead
from repro.lfs.ondisk import (BLOCK_SIZE, BlockKind, Checkpoint,
                              FragmentSummary, SegmentState,
                              payload_checksum)

__all__ = ["LogHead", "roll_forward", "rebuild_usage", "scan_log",
           "scan_segment"]


@dataclass(frozen=True)
class _Fragment:
    segment: int
    start_offset: int
    summary: FragmentSummary

    @property
    def end_offset(self) -> int:
        return self.start_offset + 1 + len(self.summary.entries)


def scan_segment(fs, segment: int) -> list[_Fragment]:
    """Walk a segment's fragments front to back (instant, via peek)."""
    base = fs.writer.segment_base(segment)
    fragments: list[_Fragment] = []
    offset = 0
    while offset + 1 < fs.sb.segment_blocks:
        block = fs.device.peek((base + offset) * BLOCK_SIZE, BLOCK_SIZE)
        try:
            summary = FragmentSummary.decode(block)
        except CorruptFileSystemError:
            break
        if summary.segment != segment:
            break
        end = offset + 1 + len(summary.entries)
        if end > fs.sb.segment_blocks:
            break
        fragments.append(_Fragment(segment, offset, summary))
        offset = end
    return fragments


def scan_log(fs) -> list[list[_Fragment]]:
    """Every segment's fragments, by segment (instant, via peek)."""
    return [scan_segment(fs, segment) for segment in range(fs.sb.nsegments)]


def _payload_intact(fs, fragment: _Fragment) -> bool:
    """Verify a fragment's payload checksum (torn-write detection)."""
    base = fs.writer.segment_base(fragment.segment)
    payload = fs.device.peek(
        (base + fragment.start_offset + 1) * BLOCK_SIZE,
        len(fragment.summary.entries) * BLOCK_SIZE)
    return payload_checksum(payload) == fragment.summary.payload_crc


def roll_forward(fs, checkpoint: Checkpoint,
                 scans: list[list[_Fragment]]) -> LogHead:
    """Re-apply the contiguous fragment chain after ``checkpoint``,
    found in ``scans`` (:func:`scan_log`).

    Returns the recovered log head (where appending resumes).
    """
    candidates = [fragment for fragments in scans for fragment in fragments
                  if fragment.summary.seq >= checkpoint.next_fragment_seq]
    candidates.sort(key=lambda fragment: fragment.summary.seq)

    expected = checkpoint.next_fragment_seq
    applied: list[_Fragment] = []
    for fragment in candidates:
        if fragment.summary.seq != expected:
            break
        if not _payload_intact(fs, fragment):
            break  # torn flush: the chain (and the log) ends here
        _apply_fragment(fs, fragment)
        applied.append(fragment)
        expected += 1

    if applied:
        last = applied[-1]
        return LogHead(last.segment, last.end_offset, expected)
    return LogHead(checkpoint.head_segment, checkpoint.head_offset,
                   checkpoint.next_fragment_seq)


def _apply_fragment(fs, fragment: _Fragment) -> None:
    base = fs.writer.segment_base(fragment.segment)
    for position, entry in enumerate(fragment.summary.entries):
        addr = base + fragment.start_offset + 1 + position
        if entry.kind == BlockKind.INODE:
            fs.imap.set(entry.ino, addr)
        elif entry.kind == BlockKind.IMAP:
            fs.imap_addrs[entry.index] = addr
            fs.imap.load_block(
                entry.index, fs.device.peek(addr * BLOCK_SIZE, BLOCK_SIZE))
        # DATA / INDIRECT / DINDIRECT blocks become reachable through
        # the inodes applied above; nothing to do for them here.


# ---------------------------------------------------------------------------
# usage rebuild
# ---------------------------------------------------------------------------

def rebuild_usage(fs, scans: list[list[_Fragment]]) -> None:
    """Recompute every segment's live byte count from first principles,
    from the summaries in ``scans`` (:func:`scan_log`)."""
    log = LogPeek(fs)
    for segment, fragments in enumerate(scans):
        entry = fs.usage[segment]
        live = 0
        base = fs.writer.segment_base(segment)
        for fragment in fragments:
            addr = base + fragment.start_offset
            for block_id in fragment.summary.entries:
                addr += 1
                if is_live(fs, log.inode, log, block_id, addr):
                    live += BLOCK_SIZE
        entry.live_bytes = live
        if segment == fs.writer.current_segment:
            entry.state = SegmentState.CURRENT
        elif fragments:
            entry.state = SegmentState.DIRTY
        else:
            entry.state = SegmentState.CLEAN

