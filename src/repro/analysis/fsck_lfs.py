"""Offline LFS consistency checker (the sanitizer half of analysis).

Section 3.1 of the paper contrasts LFS roll-forward recovery with the
UNIX ``fsck`` pass; this module is the machine-checked version of that
pass for our LFS: an *instant* (peek-based, no simulated time) audit of
the on-disk structures of a mounted, flushed volume.

Checks performed:

* superblock on disk decodes and matches the mounted geometry;
* the newest checkpoint region agrees with the in-memory imap block
  addresses (checkpoint/imap agreement);
* on-disk imap blocks byte-match the in-memory inode map;
* every allocated inode decodes, carries its own number, and its whole
  pointer tree (direct, indirect, double-indirect) stays inside the
  log with **no block address claimed twice**;
* pointers past EOF are null (a truncate that forgot to clear one
  would resurrect stale data);
* every allocated inode is reachable from the root directory exactly
  once, and every directory entry points to an allocated inode of the
  recorded type;
* the segment usage table matches the actual live block population
  (clean segments hold zero live bytes).

The checker reads disk state via ``peek`` so it needs a volume whose
volatile state has been flushed — :func:`repro.testing.assert_fs_consistent`
checkpoints first.  Unflushed state is itself reported as a finding
rather than silently tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CorruptFileSystemError
from repro.lfs import directory as dirmod
from repro.lfs.blockmap import LogPeek, addrs, chunk_base, chunk_root
from repro.lfs.imap import PENDING
from repro.lfs.ondisk import (BLOCK_SIZE, NULL_ADDR, Checkpoint, FileType,
                              Inode, SegmentState, Superblock)

ROOT_INO = 1


@dataclass(frozen=True)
class FsckFinding:
    """One inconsistency, with a stable code for tests to match on."""

    code: str
    message: str

    def render(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass
class FsckReport:
    """Everything one fsck pass established."""

    findings: list[FsckFinding] = field(default_factory=list)
    files: int = 0
    directories: int = 0
    blocks_claimed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def codes(self) -> set[str]:
        return {finding.code for finding in self.findings}

    def add(self, code: str, message: str) -> None:
        self.findings.append(FsckFinding(code, message))

    def render(self) -> str:
        head = (f"fsck: {self.files} files, {self.directories} directories, "
                f"{self.blocks_claimed} blocks, "
                f"{len(self.findings)} inconsistencies")
        return "\n".join([head] + [f.render() for f in self.findings])


class _Fsck:
    """One audit run over a mounted LFS."""

    def __init__(self, fs):
        self.fs = fs
        self.report = FsckReport()
        #: block address -> human description of its claimant
        self.claimed: dict[int, str] = {}
        #: The inodes that decode and the pointer blocks under them.
        self.log = LogPeek(fs)

    # -- helpers --------------------------------------------------------
    def _peek_block(self, addr: int) -> bytes:
        return self.fs.device.peek(addr * BLOCK_SIZE, BLOCK_SIZE)

    def _log_range(self) -> tuple[int, int]:
        sb = self.fs.sb
        start = sb.first_segment_block
        return start, start + sb.nsegments * sb.segment_blocks

    def _claim(self, addr: int, owner: str) -> bool:
        """Range-check and claim ``addr``; False when unusable."""
        lo, hi = self._log_range()
        if not lo <= addr < hi:
            self.report.add(
                "FSCK-RANGE",
                f"{owner}: address {addr} outside the log [{lo}, {hi})")
            return False
        previous = self.claimed.get(addr)
        if previous is not None:
            self.report.add(
                "FSCK-DUP",
                f"address {addr} claimed by both {previous} and {owner}")
            return False
        self.claimed[addr] = owner
        self.report.blocks_claimed += 1
        return True

    # -- phases ---------------------------------------------------------
    def run(self) -> FsckReport:
        fs = self.fs
        if not fs.mounted:
            self.report.add("FSCK-STATE", "file system is not mounted")
            return self.report
        self._check_volatile_flushed()
        self._check_superblock()
        self._check_checkpoint()
        self._check_imap_blocks()
        inodes = self._check_inodes()
        self._check_reachability(inodes)
        self._check_segment_usage()
        return self.report

    def _check_volatile_flushed(self) -> None:
        fs = self.fs
        if fs.writer is not None and fs.writer.pending_count:
            self.report.add(
                "FSCK-STATE",
                f"{fs.writer.pending_count} buffered blocks not flushed; "
                "checkpoint before fsck")
        if fs._dirty_inodes or fs._dirty_chunks or fs.imap.dirty_blocks:
            self.report.add(
                "FSCK-STATE",
                "dirty metadata in memory; checkpoint before fsck")

    def _check_superblock(self) -> None:
        try:
            on_disk = Superblock.decode(self._peek_block(0))
        except CorruptFileSystemError as exc:
            self.report.add("FSCK-SB", f"superblock unreadable: {exc}")
            return
        if on_disk != self.fs.sb:
            self.report.add(
                "FSCK-SB", "on-disk superblock differs from mounted geometry")

    def _check_checkpoint(self) -> None:
        fs = self.fs
        best: Checkpoint | None = None
        for base in (fs.sb.checkpoint_a, fs.sb.checkpoint_b):
            raw = fs.device.peek(base * BLOCK_SIZE,
                                 fs.sb.checkpoint_blocks * BLOCK_SIZE)
            try:
                candidate = Checkpoint.decode(raw)
            except CorruptFileSystemError:
                continue
            if best is None or candidate.seq > best.seq:
                best = candidate
        if best is None:
            self.report.add("FSCK-CP", "no valid checkpoint region on disk")
            return
        if best.seq != fs.checkpoint_seq:
            self.report.add(
                "FSCK-CP",
                f"newest checkpoint seq {best.seq} != mounted seq "
                f"{fs.checkpoint_seq}")
        if list(best.imap_addrs) != list(fs.imap_addrs):
            self.report.add(
                "FSCK-CP",
                "checkpoint imap addresses disagree with the mounted imap")

    def _check_imap_blocks(self) -> None:
        fs = self.fs
        for index, addr in enumerate(fs.imap_addrs):
            if addr == NULL_ADDR:
                continue
            if not self._claim(addr, f"imap block {index}"):
                continue
            try:
                expected = fs.imap.encode_block(index)
            except CorruptFileSystemError as exc:
                self.report.add("FSCK-IMAP", f"imap block {index}: {exc}")
                continue
            if self._peek_block(addr) != expected:
                self.report.add(
                    "FSCK-IMAP",
                    f"on-disk imap block {index} (addr {addr}) disagrees "
                    "with the in-memory inode map")

    def _check_inodes(self) -> dict[int, Inode]:
        """Validate every allocated inode and claim its block tree."""
        fs = self.fs
        inodes = self.log.inodes
        for ino in fs.imap.allocated_inodes():
            addr = fs.imap.get(ino)
            if addr == PENDING:
                self.report.add(
                    "FSCK-IMAP", f"inode {ino} still PENDING in the imap")
                continue
            if not self._claim(addr, f"inode {ino}"):
                continue
            try:
                inode = Inode.decode(self._peek_block(addr))
            except CorruptFileSystemError as exc:
                self.report.add(
                    "FSCK-INODE",
                    f"inode {ino} at address {addr} unreadable: {exc}")
                continue
            if inode.ino != ino:
                self.report.add(
                    "FSCK-INODE",
                    f"imap entry {ino} points at inode numbered {inode.ino}")
                continue
            inodes[ino] = inode
            if inode.ftype == FileType.DIRECTORY:
                self.report.directories += 1
            else:
                self.report.files += 1
            self._check_pointer_tree(inode)
        return inodes

    def _check_pointer_tree(self, inode: Inode) -> None:
        nblocks = -(-inode.size // BLOCK_SIZE)
        owner = f"inode {inode.ino}"
        self._check_data(owner, inode.direct, 0, nblocks)
        if inode.indirect != NULL_ADDR and nblocks <= chunk_base(0):
            self.report.add(
                "FSCK-EOF", f"{owner}: indirect block past EOF is non-null")
        else:
            self._check_chunk(inode, 0, None, nblocks)
        if inode.dindirect == NULL_ADDR:
            return
        if nblocks <= chunk_base(1):
            self.report.add(
                "FSCK-EOF",
                f"{owner}: double-indirect block past EOF is non-null")
        elif self._claim(inode.dindirect, f"{owner} dindirect root"):
            droot = self.log.block(inode.dindirect)
            for chunk_index in range(1, len(droot) + 1):
                self._check_chunk(inode, chunk_index, droot, nblocks)

    def _check_chunk(self, inode: Inode, chunk_index: int, droot,
                     nblocks: int) -> None:
        """Claim chunk ``chunk_index``'s pointer block, if written, and
        the data blocks it points at."""
        owner = f"inode {inode.ino}"
        root = chunk_root(inode, chunk_index, droot)
        if root == NULL_ADDR or not self._claim(
                root, f"{owner} pointer block {chunk_index}"):
            return
        self._check_data(owner, self.log.block(root), chunk_base(chunk_index),
                         nblocks)

    def _check_data(self, owner: str, pointers, base: int,
                    nblocks: int) -> None:
        """Claim the data blocks that ``pointers``, the pointers of file
        blocks ``base`` on, point at."""
        for bidx, addr in enumerate(pointers, base):
            if addr == NULL_ADDR:
                continue
            if bidx >= nblocks:
                self.report.add(
                    "FSCK-EOF",
                    f"{owner}: pointer to block {bidx} past EOF is non-null")
                continue
            self._claim(addr, f"{owner} data block {bidx}")

    # -- reachability ---------------------------------------------------
    def _read_file_payload(self, inode: Inode) -> bytes:
        """Assemble a file's bytes straight from the disk store."""
        nblocks = -(-inode.size // BLOCK_SIZE)
        blocks = [bytes(BLOCK_SIZE) if addr == NULL_ADDR
                  else self._peek_block(addr)
                  for addr in addrs(self.log, inode, 0, nblocks - 1)]
        return b"".join(blocks)[:inode.size]

    def _check_reachability(self, inodes: dict[int, Inode]) -> None:
        fs = self.fs
        if ROOT_INO not in inodes:
            self.report.add("FSCK-TREE", "root inode missing or unreadable")
            return
        if inodes[ROOT_INO].ftype != FileType.DIRECTORY:
            self.report.add("FSCK-TREE", "root inode is not a directory")
            return
        reachable: set[int] = {ROOT_INO}
        queue = [(ROOT_INO, "/")]
        while queue:
            dir_ino, path = queue.pop()
            payload = self._read_file_payload(inodes[dir_ino])
            try:
                entries = dirmod.decode_directory(payload)
            except CorruptFileSystemError as exc:
                self.report.add(
                    "FSCK-TREE", f"directory {path} unreadable: {exc}")
                continue
            for name, (ino, ftype) in sorted(entries.items()):
                child_path = path.rstrip("/") + "/" + name
                in_range = 1 <= ino < fs.imap.max_inodes
                if not in_range or not fs.imap.is_allocated(ino):
                    self.report.add(
                        "FSCK-TREE",
                        f"entry {child_path} points at unallocated "
                        f"inode {ino}")
                    continue
                if ino in reachable:
                    self.report.add(
                        "FSCK-TREE",
                        f"inode {ino} reached twice (second via "
                        f"{child_path})")
                    continue
                reachable.add(ino)
                child = inodes.get(ino)
                if child is None:
                    continue  # already reported by _check_inodes
                if child.ftype != ftype:
                    self.report.add(
                        "FSCK-TREE",
                        f"entry {child_path} records type {ftype.name} but "
                        f"inode {ino} is {child.ftype.name}")
                if child.ftype == FileType.DIRECTORY:
                    queue.append((ino, child_path))
        for ino in sorted(set(fs.imap.allocated_inodes()) - reachable):
            self.report.add(
                "FSCK-TREE",
                f"inode {ino} is allocated but unreachable from the root")

    # -- segment usage --------------------------------------------------
    def _check_segment_usage(self) -> None:
        fs = self.fs
        sb = fs.sb
        expected = [0] * sb.nsegments
        for addr in self.claimed:
            segment = (addr - sb.first_segment_block) // sb.segment_blocks
            if 0 <= segment < sb.nsegments:
                expected[segment] += BLOCK_SIZE
        for segment, entry in enumerate(fs.usage):
            if entry.state == SegmentState.CLEAN and entry.live_bytes:
                self.report.add(
                    "FSCK-USAGE",
                    f"clean segment {segment} records "
                    f"{entry.live_bytes} live bytes")
            if entry.live_bytes != expected[segment]:
                self.report.add(
                    "FSCK-USAGE",
                    f"segment {segment}: usage table says "
                    f"{entry.live_bytes} live bytes, actual live blocks "
                    f"total {expected[segment]}")


def fsck(fs) -> FsckReport:
    """Audit a mounted (and flushed) LFS volume; returns the report."""
    return _Fsck(fs).run()
