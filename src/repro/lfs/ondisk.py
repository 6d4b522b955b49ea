"""On-disk structures of the LFS volume.

Everything the file system persists is defined and serialized here:

* the **superblock** (static geometry, written once by ``format``),
* **checkpoint regions** (two, written alternately; each holds the
  inode-map block addresses, the segment usage table and the log
  position, committed by a checksum),
* **fragment summaries** (the per-flush commit records inside
  segments: one entry per payload block giving its identity),
* **inodes** (one per 4 KB block for simplicity).

All addresses are in file-system blocks (4 KB); address 0 is the
superblock and doubles as the null address.

Every structure carries a magic number and a CRC32 checksum so that
mount and roll-forward can reject garbage (torn writes, never-written
regions) instead of misinterpreting it.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from typing import NamedTuple

from repro.errors import CorruptFileSystemError

BLOCK_SIZE = 4096
NULL_ADDR = 0

SUPERBLOCK_MAGIC = 0x4C465321  # "LFS!"
CHECKPOINT_MAGIC = 0x43504E54  # "CPNT"
SUMMARY_MAGIC = 0x53554D4D     # "SUMM"
INODE_MAGIC = 0x494E4F44       # "INOD"

N_DIRECT = 16
ADDRS_PER_BLOCK = BLOCK_SIZE // 8  # 512 block addresses per pointer block


class FileType(enum.IntEnum):
    """Kind of object an inode describes."""

    REGULAR = 1
    DIRECTORY = 2


class BlockKind(enum.IntEnum):
    """Identity classes of logged blocks (used by summaries/cleaner)."""

    DATA = 1       # file data block: (inode, file block index)
    INDIRECT = 2   # single-indirect pointer block: (inode, chunk index)
    DINDIRECT = 3  # double-indirect root block: (inode, 0)
    INODE = 4      # inode block: (inode, 0)
    IMAP = 5       # inode-map block: (0, imap block index)


def _checksum(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def _pad_block(payload: bytes) -> bytes:
    if len(payload) > BLOCK_SIZE:
        raise CorruptFileSystemError(
            f"structure of {len(payload)} bytes exceeds the block size")
    return payload + bytes(BLOCK_SIZE - len(payload))


# ---------------------------------------------------------------------------
# superblock
# ---------------------------------------------------------------------------

_SUPERBLOCK_FMT = "<IIQQQQQQQI"


@dataclass(frozen=True)
class Superblock:
    """Static volume geometry."""

    block_size: int
    segment_blocks: int
    nsegments: int
    first_segment_block: int
    checkpoint_blocks: int   # size of ONE checkpoint region, in blocks
    checkpoint_a: int        # block address of region A
    checkpoint_b: int        # block address of region B
    max_inodes: int

    def encode(self) -> bytes:
        body = struct.pack(
            _SUPERBLOCK_FMT[:-1], SUPERBLOCK_MAGIC, 0, self.block_size,
            self.segment_blocks, self.nsegments, self.first_segment_block,
            self.checkpoint_blocks, self.checkpoint_a, self.checkpoint_b,
        ) + struct.pack("<Q", self.max_inodes)
        return _pad_block(body + struct.pack("<I", _checksum(body)))

    @classmethod
    def decode(cls, block: bytes) -> "Superblock":
        head = struct.calcsize(_SUPERBLOCK_FMT[:-1]) + 8
        body, stored = block[:head], block[head:head + 4]
        if struct.unpack("<I", stored)[0] != _checksum(body):
            raise CorruptFileSystemError("superblock checksum mismatch")
        fields = struct.unpack(_SUPERBLOCK_FMT[:-1], body[:-8])
        (magic, _reserved, block_size, segment_blocks, nsegments,
         first_segment_block, checkpoint_blocks, checkpoint_a,
         checkpoint_b) = fields
        max_inodes = struct.unpack("<Q", body[-8:])[0]
        if magic != SUPERBLOCK_MAGIC:
            raise CorruptFileSystemError("bad superblock magic")
        if block_size != BLOCK_SIZE:
            raise CorruptFileSystemError(
                f"unsupported block size {block_size}")
        return cls(block_size, segment_blocks, nsegments,
                   first_segment_block, checkpoint_blocks, checkpoint_a,
                   checkpoint_b, max_inodes)


# ---------------------------------------------------------------------------
# segment usage table entries / checkpoint
# ---------------------------------------------------------------------------

class SegmentState(enum.IntEnum):
    CLEAN = 0
    DIRTY = 1
    CURRENT = 2


@dataclass
class SegmentUsage:
    """One segment's usage record."""

    state: SegmentState = SegmentState.CLEAN
    live_bytes: int = 0
    #: Sequence number of the last fragment written to the segment;
    #: the cleaner's cost-benefit policy uses it as an age proxy.
    last_seq: int = 0


_USAGE_ENTRY = struct.Struct("<BQQ")
#: Usage-entry state code -> :class:`SegmentState`, without an enum call.
_STATE_OF_CODE = tuple(SegmentState)


@dataclass
class Checkpoint:
    """A consistent cut of the file system's volatile maps."""

    seq: int
    next_fragment_seq: int
    #: Current head of the log: segment index and next free block
    #: within it (so roll-forward knows where writing would resume).
    head_segment: int
    head_offset: int
    imap_addrs: list[int] = field(default_factory=list)
    usage: list[SegmentUsage] = field(default_factory=list)

    def encode(self, region_blocks: int) -> bytes:
        body = struct.pack(
            "<IIQQQQQQ", CHECKPOINT_MAGIC, 0, self.seq,
            self.next_fragment_seq, self.head_segment, self.head_offset,
            len(self.imap_addrs), len(self.usage))
        body += struct.pack(f"<{len(self.imap_addrs)}Q", *self.imap_addrs)
        body += b"".join([_USAGE_ENTRY.pack(entry.state, entry.live_bytes,
                                            entry.last_seq)
                          for entry in self.usage])
        payload = body + struct.pack("<I", _checksum(body))
        capacity = region_blocks * BLOCK_SIZE
        if len(payload) > capacity:
            raise CorruptFileSystemError(
                f"checkpoint of {len(payload)} bytes exceeds its "
                f"{capacity}-byte region")
        return payload + bytes(capacity - len(payload))

    @classmethod
    def decode(cls, data: bytes) -> "Checkpoint":
        header_size = struct.calcsize("<IIQQQQQQ")
        if len(data) < header_size + 4:
            raise CorruptFileSystemError("checkpoint region too small")
        (magic, _reserved, seq, next_fragment_seq, head_segment, head_offset,
         n_imap, n_usage) = struct.unpack("<IIQQQQQQ", data[:header_size])
        if magic != CHECKPOINT_MAGIC:
            raise CorruptFileSystemError("bad checkpoint magic")
        body_size = header_size + 8 * n_imap + _USAGE_ENTRY.size * n_usage
        body = data[:body_size]
        stored = struct.unpack("<I", data[body_size:body_size + 4])[0]
        if stored != _checksum(body):
            raise CorruptFileSystemError("checkpoint checksum mismatch")
        at = header_size
        imap_addrs = list(struct.unpack(f"<{n_imap}Q",
                                        body[at:at + 8 * n_imap]))
        at += 8 * n_imap
        usage = [SegmentUsage(_STATE_OF_CODE[state], live, last_seq)
                 for state, live, last_seq
                 in _USAGE_ENTRY.iter_unpack(body[at:])]
        return cls(seq, next_fragment_seq, head_segment, head_offset,
                   imap_addrs, usage)


# ---------------------------------------------------------------------------
# fragment summaries
# ---------------------------------------------------------------------------

class BlockId(NamedTuple):
    """Identity of one logged block.

    A named tuple: it keys the segment writer's pending index, so its
    hash and equality are the tuple's, computed in C.
    """

    kind: BlockKind
    ino: int
    index: int


#: ``new_block_id((kind, ino, index))`` builds a :class:`BlockId` in C,
#: without the named tuple's Python ``__new__`` frame; the hot loops of
#: the request path, the cleaner and summary decoding use it.
new_block_id = partial(tuple.__new__, BlockId)

#: Summary-entry kind code -> :class:`BlockKind`, without an enum call.
_KIND_OF_CODE = {int(kind): kind for kind in BlockKind}


_SUMMARY_HEADER_FMT = "<IIQQQI"
_SUMMARY_ENTRY_FMT = "<BxxxIQ"
_SUMMARY_ENTRY = struct.Struct(_SUMMARY_ENTRY_FMT)

#: How many payload blocks one 4 KB summary block can describe.
MAX_FRAGMENT_PAYLOAD = (BLOCK_SIZE - struct.calcsize(_SUMMARY_HEADER_FMT) - 4) \
    // struct.calcsize(_SUMMARY_ENTRY_FMT)


def payload_checksum(payload: bytes) -> int:
    """Checksum covering a fragment's payload blocks."""
    return _checksum(payload)


def payload_checksum_parts(parts) -> int:
    """Checksum of concatenated ``parts`` without materializing the join.

    crc32 chains, so this equals ``payload_checksum(b"".join(parts))``;
    the segment writer uses it to checksum pending block views in place.
    """
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class FragmentSummary:
    """The commit record of one log flush (fragment).

    The summary occupies the fragment's *first* block and the payload
    follows, all written as one large sequential device write — on the
    RAID-5 array a full-segment flush is therefore a stripe-aligned
    full-stripe write, exactly the efficient large write LFS exists to
    produce.  Atomicity comes from ``payload_crc``: recovery only
    honours a fragment whose payload checksum verifies, so a torn
    flush (crash mid-write) is rejected wholesale.

    ``entries[i]`` identifies the payload block at
    ``fragment_start + 1 + i``.
    """

    seq: int
    segment: int
    entries: tuple[BlockId, ...]
    payload_crc: int = 0

    def encode(self) -> bytes:
        body = struct.pack(_SUMMARY_HEADER_FMT, SUMMARY_MAGIC, 0, self.seq,
                           self.segment, len(self.entries), self.payload_crc)
        body += b"".join(starmap(_SUMMARY_ENTRY.pack, self.entries))
        return _pad_block(body + struct.pack("<I", _checksum(body)))

    @classmethod
    def decode(cls, block: bytes) -> "FragmentSummary":
        header_size = struct.calcsize(_SUMMARY_HEADER_FMT)
        magic, _r, seq, segment, count, payload_crc = struct.unpack(
            _SUMMARY_HEADER_FMT, block[:header_size])
        if magic != SUMMARY_MAGIC:
            raise CorruptFileSystemError("bad fragment summary magic")
        if count > MAX_FRAGMENT_PAYLOAD:
            raise CorruptFileSystemError(
                f"summary claims {count} blocks (max {MAX_FRAGMENT_PAYLOAD})")
        entry_size = struct.calcsize(_SUMMARY_ENTRY_FMT)
        body_size = header_size + count * entry_size
        body = block[:body_size]
        stored = struct.unpack("<I", block[body_size:body_size + 4])[0]
        if stored != _checksum(body):
            raise CorruptFileSystemError("fragment summary checksum mismatch")
        entries = []
        for code, ino, index in struct.iter_unpack(_SUMMARY_ENTRY_FMT,
                                                   body[header_size:]):
            kind = _KIND_OF_CODE.get(code)
            if kind is None:
                raise CorruptFileSystemError(
                    f"fragment summary entry of unknown kind {code}")
            entries.append(new_block_id((kind, ino, index)))
        return cls(seq, segment, tuple(entries), payload_crc)


# ---------------------------------------------------------------------------
# inodes
# ---------------------------------------------------------------------------

_INODE_FMT = "<IIQQQd"


@dataclass
class Inode:
    """One file or directory."""

    ino: int
    ftype: FileType
    size: int = 0
    nlink: int = 1
    mtime: float = 0.0
    direct: list[int] = field(default_factory=lambda: [NULL_ADDR] * N_DIRECT)
    indirect: int = NULL_ADDR
    dindirect: int = NULL_ADDR

    def encode(self) -> bytes:
        body = struct.pack(_INODE_FMT, INODE_MAGIC, self.ino,
                           int(self.ftype), self.size, self.nlink,
                           self.mtime)
        body += struct.pack(f"<{N_DIRECT}Q", *self.direct)
        body += struct.pack("<QQ", self.indirect, self.dindirect)
        return _pad_block(body + struct.pack("<I", _checksum(body)))

    @classmethod
    def decode(cls, block: bytes) -> "Inode":
        header_size = struct.calcsize(_INODE_FMT)
        body_size = header_size + 8 * N_DIRECT + 16
        body = block[:body_size]
        stored = struct.unpack("<I", block[body_size:body_size + 4])[0]
        if stored != _checksum(body):
            raise CorruptFileSystemError("inode checksum mismatch")
        magic, ino, ftype, size, nlink, mtime = struct.unpack(
            _INODE_FMT, body[:header_size])
        if magic != INODE_MAGIC:
            raise CorruptFileSystemError("bad inode magic")
        direct = list(struct.unpack(
            f"<{N_DIRECT}Q", body[header_size:header_size + 8 * N_DIRECT]))
        indirect, dindirect = struct.unpack("<QQ", body[-16:])
        return cls(ino, FileType(ftype), size, nlink, mtime, direct,
                   indirect, dindirect)

    def copy(self) -> "Inode":
        return Inode(self.ino, self.ftype, self.size, self.nlink, self.mtime,
                     list(self.direct), self.indirect, self.dindirect)


# ---------------------------------------------------------------------------
# pointer blocks
# ---------------------------------------------------------------------------

def encode_pointer_block(addrs: list[int]) -> bytes:
    """Serialize a 512-entry block-address array."""
    if len(addrs) != ADDRS_PER_BLOCK:
        raise CorruptFileSystemError(
            f"pointer block needs {ADDRS_PER_BLOCK} entries, got {len(addrs)}")
    return struct.pack(f"<{ADDRS_PER_BLOCK}Q", *addrs)


def decode_pointer_block(block: bytes) -> list[int]:
    return list(struct.unpack(f"<{ADDRS_PER_BLOCK}Q", block[:BLOCK_SIZE]))
