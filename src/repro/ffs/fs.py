"""An update-in-place file system with fixed block allocation.

Deliberately simple — its purpose is to be the *traditional* baseline
whose small random writes turn into RAID-5 read-modify-writes.  Layout:

* block 0: superblock (magic, geometry),
* a block-allocation bitmap,
* a fixed inode table (one inode per slot, direct + single-indirect
  pointers),
* the data area.

Writes go directly to their home blocks (no log, no write buffering),
and each data write also rewrites the inode in place — the access
pattern of a 1990s UNIX FFS without its cylinder-group tricks.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import (FileExistsFsError, FileNotFoundFsError,
                          FileSystemError, NoSpaceFsError)
from repro.lfs.ondisk import (ADDRS_PER_BLOCK, BLOCK_SIZE, decode_pointer_block,
                              encode_pointer_block)
from repro.sim import Simulator

_FFS_MAGIC = 0x46465321  # "FFS!"
_N_DIRECT = 12
_NULL = 0


class _FfsInode:
    __slots__ = ("used", "size", "direct", "indirect")

    def __init__(self):
        self.used = False
        self.size = 0
        self.direct = [_NULL] * _N_DIRECT
        self.indirect = _NULL

    def encode(self) -> bytes:
        body = struct.pack("<IBxxxQ", _FFS_MAGIC, 1 if self.used else 0,
                           self.size)
        body += struct.pack(f"<{_N_DIRECT}Q", *self.direct)
        body += struct.pack("<Q", self.indirect)
        return body

    @classmethod
    def decode(cls, raw: bytes) -> "_FfsInode":
        inode = cls()
        magic, used, size = struct.unpack("<IBxxxQ", raw[:16])
        if magic != _FFS_MAGIC:
            raise FileSystemError("bad FFS inode magic")
        inode.used = bool(used)
        inode.size = size
        at = 16
        inode.direct = list(struct.unpack(
            f"<{_N_DIRECT}Q", raw[at:at + 8 * _N_DIRECT]))
        at += 8 * _N_DIRECT
        inode.indirect = struct.unpack("<Q", raw[at:at + 8])[0]
        return inode

    @classmethod
    def slot_bytes(cls) -> int:
        return 16 + 8 * _N_DIRECT + 8


class UpdateInPlaceFS:
    """Flat-namespace update-in-place file system (the FFS baseline).

    The namespace is a single level (no subdirectories) because the
    baseline exists for data-path benchmarking; names map to inode
    slots through an in-memory table persisted in the superblock area.
    """

    def __init__(self, sim: Simulator, device, max_files: int = 256,
                 name: str = "ffs"):
        self.sim = sim
        self.device = device
        self.max_files = max_files
        self.name = name
        self.mounted = False
        self._names: dict[str, int] = {}
        self._inodes: list[_FfsInode] = []
        self._bitmap: Optional[bytearray] = None
        self._bitmap_blocks = 0
        self._inode_table_block = 0
        self._inode_blocks = 0
        self._data_start = 0
        self._total_blocks = 0
        #: Low-water mark: every data block below it is allocated.
        self._free_hint = 0
        self.data_writes = 0
        self.data_reads = 0
        sim.metrics.expose(name, self, {"data_writes": "", "data_reads": ""})

    # ------------------------------------------------------------------
    def format(self):
        """Process: lay out and initialize an empty volume."""
        self._total_blocks = self.device.capacity_bytes // BLOCK_SIZE
        self._bitmap_blocks = -(-self._total_blocks // (8 * BLOCK_SIZE))
        per_block = BLOCK_SIZE // _FfsInode.slot_bytes()
        self._inode_blocks = -(-self.max_files // per_block)
        self._inode_table_block = 1 + self._bitmap_blocks
        self._data_start = self._inode_table_block + self._inode_blocks
        if self._data_start + 8 >= self._total_blocks:
            raise FileSystemError("device too small for FFS layout")
        self._bitmap = bytearray(self._bitmap_blocks * BLOCK_SIZE)
        for block in range(self._data_start):
            self._set_bit(block)
        self._free_hint = self._data_start
        self._inodes = [_FfsInode() for _ in range(self.max_files)]
        self._names = {}
        yield from self._write_inode_table()
        yield from self._write_bitmap()
        self.mounted = True
        return None

    def _write_inode_table(self):
        per_block = BLOCK_SIZE // _FfsInode.slot_bytes()
        payload = bytearray(self._inode_blocks * BLOCK_SIZE)
        for slot, inode in enumerate(self._inodes):
            block, index = divmod(slot, per_block)
            at = block * BLOCK_SIZE + index * _FfsInode.slot_bytes()
            payload[at:at + _FfsInode.slot_bytes()] = inode.encode()
        yield from self.device.write(self._inode_table_block * BLOCK_SIZE,
                                     bytes(payload))
        return None

    def _write_inode(self, slot: int):
        """Process: rewrite one inode slot in place."""
        per_block = BLOCK_SIZE // _FfsInode.slot_bytes()
        block = self._inode_table_block + slot // per_block
        index = slot % per_block
        raw = yield from self.device.read(block * BLOCK_SIZE, BLOCK_SIZE)
        updated = bytearray(raw)
        at = index * _FfsInode.slot_bytes()
        updated[at:at + _FfsInode.slot_bytes()] = self._inodes[slot].encode()
        yield from self.device.write(block * BLOCK_SIZE, bytes(updated))
        return None

    def _write_bitmap(self):
        yield from self.device.write(1 * BLOCK_SIZE, bytes(self._bitmap))
        return None

    # ------------------------------------------------------------------
    def _set_bit(self, block: int) -> None:
        self._bitmap[block // 8] |= 1 << (block % 8)

    def _clear_bit(self, block: int) -> None:
        self._bitmap[block // 8] &= ~(1 << (block % 8))
        if block < self._free_hint:
            self._free_hint = block

    def _test_bit(self, block: int) -> bool:
        return bool(self._bitmap[block // 8] & (1 << (block % 8)))

    def _allocate_block(self) -> int:
        """Allocate the lowest free data block (first-free placement).

        The scan starts at the low-water mark: every block below it is
        allocated, so it finds the block a scan from the data start
        would.
        """
        for block in range(self._free_hint, self._total_blocks):
            if not self._test_bit(block):
                self._set_bit(block)
                self._free_hint = block + 1
                return block
        self._free_hint = self._total_blocks
        raise NoSpaceFsError("FFS volume full")

    # ------------------------------------------------------------------
    def create(self, path: str):
        """Process: create an empty file."""
        self._require_mounted()
        if path in self._names:
            raise FileExistsFsError(path)
        for slot, inode in enumerate(self._inodes):
            if not inode.used:
                inode.used = True
                inode.size = 0
                inode.direct = [_NULL] * _N_DIRECT
                inode.indirect = _NULL
                self._names[path] = slot
                yield from self._write_inode(slot)
                return slot
        raise NoSpaceFsError("out of FFS inodes")

    def _slot_of(self, path: str) -> int:
        slot = self._names.get(path)
        if slot is None:
            raise FileNotFoundFsError(path)
        return slot

    def _get_block(self, inode: _FfsInode, bidx: int):
        """Process: resolve a file block address (NULL if unallocated)."""
        if bidx < _N_DIRECT:
            return inode.direct[bidx]
        rel = bidx - _N_DIRECT
        if rel >= ADDRS_PER_BLOCK:
            raise FileSystemError("file too large for the FFS baseline")
        if inode.indirect == _NULL:
            return _NULL
        raw = yield from self.device.read(inode.indirect * BLOCK_SIZE,
                                          BLOCK_SIZE)
        return decode_pointer_block(raw)[rel]

    def _set_block(self, inode: _FfsInode, bidx: int, addr: int):
        """Process: point a file block at ``addr`` (updates in place)."""
        if bidx < _N_DIRECT:
            inode.direct[bidx] = addr
            return None
        rel = bidx - _N_DIRECT
        if rel >= ADDRS_PER_BLOCK:
            raise FileSystemError("file too large for the FFS baseline")
        if inode.indirect == _NULL:
            inode.indirect = self._allocate_block()
            pointers = [_NULL] * ADDRS_PER_BLOCK
        else:
            raw = yield from self.device.read(inode.indirect * BLOCK_SIZE,
                                              BLOCK_SIZE)
            pointers = decode_pointer_block(raw)
        pointers[rel] = addr
        yield from self.device.write(inode.indirect * BLOCK_SIZE,
                                     encode_pointer_block(pointers))
        return None

    def write(self, path: str, offset: int, data: bytes):
        """Process: write in place — every block goes to its home spot."""
        self._require_mounted()
        slot = self._slot_of(path)
        inode = self._inodes[slot]
        end = offset + len(data)
        first = offset // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE if data else first - 1
        for bidx in range(first, last + 1):
            block_start = bidx * BLOCK_SIZE
            lo = max(offset, block_start)
            hi = min(end, block_start + BLOCK_SIZE)
            piece = data[lo - offset:hi - offset]
            addr = yield from self._get_block(inode, bidx)
            if addr == _NULL:
                addr = self._allocate_block()
                yield from self._set_block(inode, bidx, addr)
            if hi - lo < BLOCK_SIZE:
                raw = yield from self.device.read(addr * BLOCK_SIZE,
                                                  BLOCK_SIZE)
                merged = bytearray(raw)
                merged[lo - block_start:hi - block_start] = piece
                piece = bytes(merged)
            yield from self.device.write(addr * BLOCK_SIZE, piece)
            self.data_writes += 1
        inode.size = max(inode.size, end)
        yield from self._write_inode(slot)
        return None

    def read(self, path: str, offset: int, nbytes: int):
        """Process: read up to ``nbytes`` (clamped at EOF)."""
        self._require_mounted()
        slot = self._slot_of(path)
        inode = self._inodes[slot]
        if offset >= inode.size or nbytes <= 0:
            return b""
        nbytes = min(nbytes, inode.size - offset)
        first = offset // BLOCK_SIZE
        last = (offset + nbytes - 1) // BLOCK_SIZE
        chunks = []
        for bidx in range(first, last + 1):
            addr = yield from self._get_block(inode, bidx)
            if addr == _NULL:
                chunks.append(bytes(BLOCK_SIZE))
            else:
                raw = yield from self.device.read(addr * BLOCK_SIZE,
                                                  BLOCK_SIZE)
                chunks.append(raw)
            self.data_reads += 1
        blob = b"".join(chunks)
        start = offset - first * BLOCK_SIZE
        return blob[start:start + nbytes]

    def unlink(self, path: str):
        """Process: remove a file, freeing its blocks."""
        self._require_mounted()
        slot = self._slot_of(path)
        inode = self._inodes[slot]
        nblocks = -(-inode.size // BLOCK_SIZE)
        for bidx in range(nblocks):
            addr = yield from self._get_block(inode, bidx)
            if addr != _NULL:
                self._clear_bit(addr)
        if inode.indirect != _NULL:
            self._clear_bit(inode.indirect)
        inode.used = False
        inode.size = 0
        del self._names[path]
        yield from self._write_inode(slot)
        yield from self._write_bitmap()
        return None

    def fsck(self):
        """Process: a UNIX-style full consistency check.

        Reads the block bitmap and the entire inode table, then walks
        every used inode's pointers (direct and indirect, with the
        indirect blocks scattered across the volume — each one a
        random seek), verifying that every referenced block is in
        range, marked allocated, and claimed only once.  Returns a
        report dict.  The cost is what Section 3.1 complains about:
        proportional to the volume's metadata, tens of minutes on a
        1 GB file system of the era.
        """
        self._require_mounted()
        yield from self.device.read(1 * BLOCK_SIZE,
                                    self._bitmap_blocks * BLOCK_SIZE)
        yield from self.device.read(self._inode_table_block * BLOCK_SIZE,
                                    self._inode_blocks * BLOCK_SIZE)
        claimed: set[int] = set()
        errors = 0
        files = 0
        for inode in self._inodes:
            if not inode.used:
                continue
            files += 1
            nblocks = -(-inode.size // BLOCK_SIZE)
            pointers = list(inode.direct[:min(nblocks, _N_DIRECT)])
            if nblocks > _N_DIRECT:
                if inode.indirect == _NULL:
                    errors += 1
                else:
                    raw = yield from self.device.read(
                        inode.indirect * BLOCK_SIZE, BLOCK_SIZE)
                    pointers.extend(
                        decode_pointer_block(raw)[:nblocks - _N_DIRECT])
                    pointers.append(inode.indirect)
            for addr in pointers:
                if addr == _NULL:
                    continue
                if not self._data_start <= addr < self._total_blocks:
                    errors += 1
                elif not self._test_bit(addr):
                    errors += 1
                elif addr in claimed:
                    errors += 1
                else:
                    claimed.add(addr)
        return {"files": files, "blocks_claimed": len(claimed),
                "errors": errors}

    def exists(self, path: str) -> bool:
        return path in self._names

    def size_of(self, path: str) -> int:
        return self._inodes[self._slot_of(path)].size

    def _require_mounted(self) -> None:
        if not self.mounted:
            raise FileSystemError("FFS volume is not formatted")
