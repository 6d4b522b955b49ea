"""The LFS block map: which log address holds each block of a file.

An inode holds ``N_DIRECT`` direct pointers, a single-indirect and a
double-indirect pointer (Sprite LFS's map, Section 3.1).  File block
``bidx >= N_DIRECT`` sits in *chunk* :func:`chunk_of`: chunk 0 is the
single-indirect block, chunk ``c > 0`` hangs off slot ``c - 1`` of the
double-indirect root, itself chunk :data:`DROOT`.

The walk (:func:`addrs`) and the liveness test (:func:`is_live`) read
pointer blocks from a *source*, ``source.get((ino, chunk))``: either
the file system's resident ``_chunks`` dict itself (a C-level
``dict.get``; a never-written root reads as a hole, a pointer block
that is not resident gives None and the caller loads it), or a
:class:`LogPeek`, which never gives None.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import CorruptFileSystemError, FileSystemError
from repro.lfs.imap import PENDING
from repro.lfs.ondisk import (ADDRS_PER_BLOCK, BLOCK_SIZE, N_DIRECT,
                              NULL_ADDR, BlockId, BlockKind, Inode,
                              decode_pointer_block)

#: Chunk index (and resident-cache key) of the double-indirect root.
DROOT = -1

#: Maximum file size in blocks: direct + single indirect + one double
#: indirect tree.
MAX_FILE_BLOCKS = N_DIRECT + ADDRS_PER_BLOCK + ADDRS_PER_BLOCK ** 2

#: A pointer block that was never written.
_HOLES = (NULL_ADDR,) * ADDRS_PER_BLOCK


def chunk_of(bidx: int) -> int:
    """The chunk holding the pointer of file block ``bidx``."""
    return (bidx - N_DIRECT) // ADDRS_PER_BLOCK


def chunk_base(chunk: int) -> int:
    """The first file block whose pointer chunk ``chunk`` holds."""
    return N_DIRECT + chunk * ADDRS_PER_BLOCK


def chunk_root(inode: Inode, chunk: int, droot) -> int:
    """Log address of chunk ``chunk``'s pointer block; ``droot`` holds
    the double-indirect root's pointers, needed for ``chunk > 0``."""
    if chunk == 0:
        return inode.indirect
    if chunk == DROOT:
        return inode.dindirect
    return droot[chunk - 1]


def set_root(inode: Inode, chunk: int, droot, addr: int) -> int:
    """Point chunk ``chunk``'s root at ``addr``; returns the old one."""
    old = chunk_root(inode, chunk, droot)
    if chunk == 0:
        inode.indirect = addr
    elif chunk == DROOT:
        inode.dindirect = addr
    else:
        droot[chunk - 1] = addr
    return old


def addrs(chunks, inode: Inode, first: int,
          last: int) -> Optional[list[int]]:
    """Log addresses of file blocks ``first``..``last`` (NULL_ADDR for a
    hole), or None when ``chunks`` lacks a pointer block they need."""
    if first < 0 or last >= MAX_FILE_BLOCKS:
        raise FileSystemError(
            f"file block index {first if first < 0 else last} out of range")
    found = inode.direct[first:last + 1]
    bidx = max(first, N_DIRECT)
    ino = inode.ino
    while bidx <= last:
        chunk, slot = divmod(bidx - N_DIRECT, ADDRS_PER_BLOCK)
        end = min(slot + last + 1 - bidx, ADDRS_PER_BLOCK)
        pointers = chunks.get((ino, chunk))
        if pointers is not None:
            found += pointers[slot:end]
        elif (inode.indirect == NULL_ADDR if chunk == 0
              else inode.dindirect == NULL_ADDR
              and (ino, DROOT) not in chunks):
            # Never written: a hole, without caching a zero chunk.
            found += _HOLES[slot:end]
        else:
            return None
        bidx += end - slot
    return found


def put_addr(fs, inode: Inode, bidx: int, addr: int) -> bool:
    """Point file block ``bidx`` at ``addr`` in ``fs``'s resident map,
    marking the pointer dirty, dropping the block's prefetch buffer and
    moving its live claim; False, changing nothing, when its pointer
    block is not resident (the caller loads it and puts again)."""
    ino = inode.ino
    if 0 <= bidx < N_DIRECT:
        pointers, slot = inode.direct, bidx
        fs._dirty_inodes.add(ino)
    else:
        if not N_DIRECT <= bidx < MAX_FILE_BLOCKS:
            raise FileSystemError(f"file block index {bidx} out of range")
        chunk, slot = divmod(bidx - N_DIRECT, ADDRS_PER_BLOCK)
        key = (ino, chunk)
        pointers = fs._chunks.get(key)
        if pointers is None:
            return False
        fs._dirty_chunks.add(key)
    old = pointers[slot]
    pointers[slot] = addr
    fs._readahead.pop((ino, bidx), None)
    if old != addr:
        # fs._move_live(old, addr), inlined: this runs for every block
        # the request path writes.
        sb = fs.sb
        first, blocks = sb.first_segment_block, sb.segment_blocks
        if old != NULL_ADDR:
            entry = fs.usage[(old - first) // blocks]
            entry.live_bytes -= BLOCK_SIZE
            if entry.live_bytes < 0:
                raise CorruptFileSystemError(
                    "segment usage accounting went negative")
        if addr != NULL_ADDR:
            fs.usage[(addr - first) // blocks].live_bytes += BLOCK_SIZE
    return True


def is_live(fs, inode_of: Callable[[int], Optional[Inode]], chunks,
            block_id: BlockId, addr: int) -> Optional[bool]:
    """Whether the block at log address ``addr`` is still ``block_id``'s
    current copy, by ``fs``'s imap, ``inode_of(ino)`` and ``chunks``;
    None when the inode or pointer block that decides it is missing."""
    kind, ino, index = block_id
    if kind == BlockKind.IMAP:
        return fs.imap_addrs[index] == addr
    imap = fs.imap
    if kind == BlockKind.INODE:
        return imap.get(ino) == addr
    inode = inode_of(ino)
    if inode is None:
        return (None if ino < imap.max_inodes
                and imap.get(ino) not in (NULL_ADDR, PENDING) else False)
    if kind == BlockKind.DATA:
        found = addrs(chunks, inode, index, index)
        return None if found is None else found[0] == addr
    chunk = DROOT if kind == BlockKind.DINDIRECT else index
    droot = None
    if chunk > 0:
        droot = chunks.get((ino, DROOT))
        if droot is None:
            return None if inode.dindirect != NULL_ADDR else False
    return chunk_root(inode, chunk, droot) == addr


class LogPeek:
    """The block map as logged: inodes at their imap addresses (or as
    given) and pointer blocks, each peeked and decoded once."""

    def __init__(self, fs):
        self._peek = fs.device.peek
        self._imap = fs.imap
        self.inodes: dict[int, Inode] = {}
        self._blocks: dict[int, list[int]] = {}

    def inode(self, ino: int) -> Optional[Inode]:
        """``ino``'s inode, or None when the imap holds no logged copy."""
        inode = self.inodes.get(ino)
        if inode is None:
            imap = self._imap
            addr = imap.get(ino) if ino < imap.max_inodes else NULL_ADDR
            if addr == NULL_ADDR or addr == PENDING:
                return None
            inode = self.inodes[ino] = Inode.decode(
                self._peek(addr * BLOCK_SIZE, BLOCK_SIZE))
        return inode

    def block(self, addr: int) -> list[int]:
        """The pointer block at log address ``addr``."""
        pointers = self._blocks.get(addr)
        if pointers is None:
            pointers = self._blocks[addr] = decode_pointer_block(
                self._peek(addr * BLOCK_SIZE, BLOCK_SIZE))
        return pointers

    def get(self, key: tuple[int, int]):
        ino, chunk = key
        droot = self.get((ino, DROOT)) if chunk > 0 else None
        root = chunk_root(self.inode(ino), chunk, droot)
        return _HOLES if root == NULL_ADDR else self.block(root)
