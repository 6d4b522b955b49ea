"""The four benchmark workloads, each with its own shadow model.

A workload goes through four phases, and :func:`perfbench.core.run_round`
times two of them:

``setup()``  build the stack, format it and prefill it (``setup_s``);
``plan()``   draw every request from the seeded generator (untimed);
``run()``    the measured phase: a closed loop of requests whose
             returned bytes are checked against the shadow as they
             arrive (``host_s`` and every ``sim_*`` metric);
``verify()`` end-of-run oracle: read-back, parity scrub, fsck.

The stack only ever sees generated inputs: sizes, offsets, payload
bytes and the failed disk all come from ``random.Random`` seeded with
the workload name and ``--seed``.  No workload takes a sequence that
returns wrong bytes at this commit (see README.md, "Known bugs").
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.fsck_lfs import fsck as fsck_lfs
from repro.analysis.scrub_raid import scrub_array
from repro.errors import ReproError
from repro.faults import DiskDeath, FaultPlan, attach_server
from repro.ffs import UpdateInPlaceFS
from repro.hw import IBM_0661, DiskDrive
from repro.hw.specs import LFS_SPEC, DiskSpec
from repro.hw.xbus_board import XbusConfig
from repro.lfs import LogStructuredFS
from repro.net.ultranet import UltranetLink
from repro.raid import DirectDiskPath, Raid5Controller
from repro.server import Raid2Config, Raid2Server
from repro.server.raid2 import make_sparcstation_client
from repro.sim import Simulator
from repro.units import KIB, MIB, SECTOR_SIZE

from perfbench.stats import Digest

UNIT = 64 * KIB
#: Seeded random bytes every payload is sliced from, so generating a
#: payload costs a slice, not a call into the random module.
POOL_BYTES = 4 * MIB


@dataclass
class OpLog:
    """Outcome of every request and end-of-run check in one round."""

    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    bytes_moved: int = 0
    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)

    def record(self, kind: str, nbytes: int, latency: float, ok: bool,
               what: str = "") -> None:
        self.attempted += 1
        (self.read_latencies if kind == "read"
         else self.write_latencies).append(latency)
        self.bytes_moved += nbytes
        if not ok:
            self.fail(f"{kind} {what}: bytes differ from the shadow")

    def error(self, kind: str, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.fail(f"{kind} {what}: {type(exc).__name__}: {exc}")

    def check(self, ok: bool, what: str) -> None:
        """Count one end-of-run check."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.findings) < 20:
            self.findings.append(message)


class Workload:
    """Shared plumbing: seeding, the payload pool and the op log."""

    name = ""
    default_ops = 0

    def __init__(self, seed: int, ops: Optional[int] = None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.n_ops = ops if ops is not None else self.default_ops
        self.pool = self.rng.randbytes(POOL_BYTES)
        self.log = OpLog()
        self.sims: list[Simulator] = []
        #: Simulated seconds the measured phase spanned, summed over sims.
        self.sim_elapsed_s = 0.0
        #: Simulated durations of the workload's one-off steps.
        self.steps: dict[str, float] = {}
        #: Host clock readings at fixed points of the current phase
        #: (see :meth:`mark`).
        self.marks: list[float] = []

    def mark(self) -> None:
        """Read the host clock at a point every round of a seed reaches
        after the same simulated work (a request's end, a prefill step).

        The simulation is deterministic, so the host work between two
        marks is the same in every round; ``run.py`` takes the median
        time of each stretch over the rounds.
        """
        self.marks.append(time.perf_counter())

    def dealt(self, mix, count: Optional[int] = None) -> list:
        """``count`` (default ``n_ops``) picks from ``(item, weight)``
        pairs in exact proportion to the weights, shuffled.

        Exact counts keep the work of a round the same for every seed,
        so seeds move the measurements less than a free draw would.
        """
        count = self.n_ops if count is None else count
        total = sum(weight for _item, weight in mix)
        picks = []
        for item, weight in mix:
            picks += [item] * int(count * weight / total)
        picks += [mix[0][0]] * (count - len(picks))
        self.rng.shuffle(picks)
        return picks

    def sizes(self, low: int, high: int, count: int) -> list[int]:
        """``count`` sizes spread evenly over [low, high], shuffled.

        Like :meth:`dealt`, a fixed spread keeps the work of a round
        the same for every seed; the seed decides which request gets
        which size.
        """
        if count == 1:
            return [low]
        sizes = [low + (high - low) * index // (count - 1)
                 for index in range(count)]
        self.rng.shuffle(sizes)
        return sizes

    def payload(self, nbytes: int) -> memoryview:
        """``nbytes`` of the pool at a seeded offset, without a copy."""
        at = self.rng.randrange(0, POOL_BYTES - nbytes + 1)
        return memoryview(self.pool)[at:at + nbytes]

    def timed(self, sim: Simulator, kind: str, nbytes: int, body,
              check: Optional[Callable[[object], bool]] = None,
              what: str = ""):
        """Process: run one request, time it and check what it returned."""
        start = sim.now
        try:
            result = yield from body
        except ReproError as exc:
            self.mark()
            self.log.error(kind, what, exc)
            return False
        self.mark()
        ok = check is None or check(result)
        self.log.record(kind, nbytes, sim.now - start, ok, what)
        return True

    def measure(self, sim: Simulator, body) -> None:
        """Run ``body`` as one process, adding its span to the sim total."""
        start = sim.now
        sim.run_process(body)
        self.sim_elapsed_s += sim.now - start

    def scrub(self, raid, label: str, rows: Optional[int] = None) -> None:
        report = scrub_array(raid, max_rows=rows)
        self.log.check(report.ok, f"{label}: parity scrub mismatched rows "
                       f"{report.mismatched_rows[:5]}")

    # -- per-workload hooks -------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def plan(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def digest_state(self, digest: Digest) -> None:
        """Feed the final shadow contents into the round digest."""
        raise NotImplementedError

    def parts(self) -> dict[str, list]:
        """The components whose public counters the traced run reads."""
        raise NotImplementedError


def small_disk(capacity_bytes: int) -> DiskSpec:
    """An IBM 0661 shrunk to ``capacity_bytes`` so a run stays small.

    Mechanics, rotation and media rate are the full drive's.  Each
    cylinder is one track, so a small drive still has over a hundred
    cylinders: seek distances, and with them the simulated latencies,
    stay as varied as on the full-size drive instead of collapsing
    onto a handful of values.
    """
    return dataclasses.replace(IBM_0661, capacity_bytes=capacity_bytes,
                               tracks_per_cylinder=1)


def _server_parts(server: Raid2Server) -> dict[str, list]:
    cougars = [c for board in server.boards for c in board.cougars]
    return {
        "disks": [path.disk for raid in server.raids for path in raid.paths],
        "strings": [s for c in cougars for s in c.strings],
        "cougars": cougars,
        "boards": list(server.boards),
        "raids": list(server.raids),
        "lfs": list(server.filesystems),
        "caches": [server.host_cache],
        "ethernets": [server.ethernet],
    }


# ----------------------------------------------------------------------
# hw-random: Figure 5's raw-array path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _HwOp:
    write: bool
    offset: int
    nbytes: int
    fill: int


class HwRandom(Workload):
    """Random hw_read / row-aligned hw_write on the 24-disk array.

    Two requests are outstanding, one per worker; each worker owns one
    half of the prefilled region, so the shadow never has to order two
    overlapping requests.  Every write fills whole stripe units with
    one byte, so the shadow is a map from unit to fill byte.
    """

    name = "hw-random"
    default_ops = 700
    MAX_UNITS = 25  # 1.6 MiB
    #: The prefilled region every request falls in: the first 128
    #: stripe rows (184 MiB), so the oracle can check every unit.
    REGION_ROWS = 128

    def setup(self) -> None:
        self.sim = sim = Simulator()
        self.sims = [sim]
        self.server = Raid2Server(sim, Raid2Config.paper_default())
        self.raid = raid = self.server.raid
        row = raid.layout.data_units_per_row * UNIT
        self.region = self.REGION_ROWS * row
        units = self.region // UNIT
        self.fills = {unit: self.rng.randrange(1, 256)
                      for unit in range(units)}
        row_units = row // UNIT

        def prefill():
            for first in range(0, units, row_units):
                yield from raid.write(first * UNIT, b"".join(
                    bytes((self.fills[unit],)) * UNIT
                    for unit in range(first, first + row_units)))
                self.mark()

        sim.run_process(prefill())
        self._taps: dict[tuple[int, int], bytes] = {}
        # hw_read returns nothing: tap the bytes its RAID leg returns.
        read = raid.read

        def tapped_read(offset: int, nbytes: int):
            data = yield from read(offset, nbytes)
            self._taps[(offset, nbytes)] = data
            return data

        raid.read = tapped_read

    def plan(self) -> None:
        rng = self.rng
        row = self.raid.layout.data_units_per_row * UNIT
        half = self.region // 2
        self.lanes: list[list[_HwOp]] = [[], []]
        kinds = self.dealt((("write", 1), ("read", 1)))
        units = self.sizes(1, self.MAX_UNITS, self.n_ops)
        for index, kind in enumerate(kinds):
            worker = index % 2
            base = worker * half
            nbytes = units[index] * UNIT
            if kind == "write":
                slot = rng.randrange((half - nbytes) // row + 1)
                op = _HwOp(True, base + slot * row, nbytes, index % 255 + 1)
            else:
                slot = rng.randrange((half - nbytes) // SECTOR_SIZE + 1)
                op = _HwOp(False, base + slot * SECTOR_SIZE, nbytes, 0)
            self.lanes[worker].append(op)

    def expected(self, offset: int, nbytes: int) -> bytes:
        pieces = []
        position, end = offset, offset + nbytes
        while position < end:
            unit = position // UNIT
            take = min(end, (unit + 1) * UNIT) - position
            pieces.append(bytes((self.fills[unit],)) * take)
            position += take
        return b"".join(pieces)

    def _worker(self, ops: list[_HwOp]):
        server, sim = self.server, self.sim
        for op in ops:
            what = f"{op.nbytes}B@{op.offset}"
            if op.write:
                done = yield from self.timed(
                    sim, "write", op.nbytes,
                    server.hw_write(op.offset, op.nbytes, fill=op.fill),
                    what=what)
                if done:
                    for unit in range(op.offset // UNIT,
                                      (op.offset + op.nbytes) // UNIT):
                        self.fills[unit] = op.fill
            else:
                expected = self.expected(op.offset, op.nbytes)
                key = (op.offset, op.nbytes)
                yield from self.timed(
                    sim, "read", op.nbytes, server.hw_read(*key),
                    check=lambda _none, key=key, expected=expected:
                        self._taps.pop(key, None) == expected,
                    what=what)

    def run(self) -> None:
        sim = self.sim
        workers = [sim.process(self._worker(lane)) for lane in self.lanes]

        def join():
            yield sim.all_of(workers)

        self.measure(sim, join())

    def verify(self) -> None:
        for unit, fill in sorted(self.fills.items()):
            data = self.raid.peek(unit * UNIT, UNIT)
            self.log.check(data == bytes((fill,)) * UNIT,
                           f"read-back: unit {unit} differs")
        self.scrub(self.raid, "hw-random", rows=self.REGION_ROWS)

    def digest_state(self, digest: Digest) -> None:
        for unit, fill in sorted(self.fills.items()):
            digest.text(f"{unit}:{fill}")

    def parts(self) -> dict[str, list]:
        return _server_parts(self.server)


# ----------------------------------------------------------------------
# lfs-mixed: Section 3.1-3.2 file-server traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FsOp:
    kind: str
    path: str
    offset: int
    nbytes: int


class LfsMixed(Workload):
    """Small random LFS traffic over three access paths, with cleaning.

    The HIPPI/LFS file set (24 MiB) is larger than the 16 MiB host
    cache; the Ethernet file set (2 MiB, Zipf-skewed) fits in it.  The
    two sets never share a file: an Ethernet read after a HIPPI write
    to the same file returns stale bytes at this commit.
    """

    name = "lfs-mixed"
    default_ops = 4000
    DISK_BYTES = 4 * MIB
    BIG_FILES, BIG_BYTES = 24, 1 * MIB
    ETHER_FILES, ETHER_BYTES = 16, 128 * KIB
    #: Request size of each Ethernet file, by popularity rank: the
    #: largest requests go to the most popular files, so the read tail
    #: (64 KiB cache misses) is a large class and not a handful of
    #: requests whose count moves with the seed.
    CHUNKS_KIB = (64, 32, 16, 8, 4)
    CLEAN_BELOW = 10  # free segments
    CLEAN_SEGMENTS = 4
    CHECKPOINT_EVERY = 250  # requests
    #: Request mix: (kind, weight).  Buffered fs_writes all cost the
    #: same simulated time, so they stay under half of the writes and
    #: the write median falls among latencies that vary with size.
    MIX = (("fs_write", 10), ("fs_read", 15), ("client_write", 20),
           ("client_read", 20), ("ether_read", 30), ("ether_write", 5))

    def setup(self) -> None:
        self.sim = sim = Simulator()
        self.sims = [sim]
        disk = small_disk(self.DISK_BYTES)
        config = Raid2Config(xbus=XbusConfig(disks_per_string=2,
                                             disk_spec=disk),
                             max_inodes=256)
        self.server = server = Raid2Server(sim, config)
        self.client = make_sparcstation_client(sim)
        self.link = UltranetLink(sim)
        sim.run_process(server.setup_lfs())
        self.big = [f"/hippi/f{index:02d}" for index in range(self.BIG_FILES)]
        self.ether = [f"/ether/e{index:02d}"
                      for index in range(self.ETHER_FILES)]
        self.shadow: dict[str, bytearray] = {}
        fs = server.fs

        def prefill():
            yield from fs.mkdir("/hippi")
            yield from fs.mkdir("/ether")
            for paths, size in ((self.big, self.BIG_BYTES),
                                (self.ether, self.ETHER_BYTES)):
                for path in paths:
                    data = self.payload(size)
                    yield from fs.create(path)
                    yield from fs.write(path, 0, data)
                    self.shadow[path] = bytearray(data)
                    self.mark()
            yield from fs.checkpoint()

        sim.run_process(prefill())

    def plan(self) -> None:
        rng = self.rng
        self.chunk_of = {path: self.CHUNKS_KIB[index % len(self.CHUNKS_KIB)]
                         * KIB for index, path in enumerate(self.ether)}
        self.ops: list[_FsOp] = []
        kinds = self.dealt(self.MIX)
        ether_ops = sum(1 for kind in kinds if kind.startswith("ether"))
        sectors = iter(self.sizes(8, 128, len(kinds) - ether_ops))
        zipf = [(path, 1.0 / (rank + 1))
                for rank, path in enumerate(self.ether)]
        ether_paths = iter(self.dealt(zipf, ether_ops))
        for kind in kinds:
            if kind.startswith("ether"):
                path = next(ether_paths)
                chunk = self.chunk_of[path]
                offset = rng.randrange(self.ETHER_BYTES // chunk) * chunk
                self.ops.append(_FsOp(kind, path, offset, chunk))
            else:
                path = rng.choice(self.big)
                nbytes = next(sectors) * SECTOR_SIZE
                offset = rng.randrange(
                    (self.BIG_BYTES - nbytes) // SECTOR_SIZE + 1) * SECTOR_SIZE
                self.ops.append(_FsOp(kind, path, offset, nbytes))
        self.payloads = [self.payload(op.nbytes)
                         if op.kind.endswith("write") else b""
                         for op in self.ops]

    def _request(self, op: _FsOp, data: bytes):
        server, fs = self.server, self.server.fs
        if op.kind == "fs_write":
            return fs.write(op.path, op.offset, data)
        if op.kind == "fs_read":
            return fs.read(op.path, op.offset, op.nbytes)
        if op.kind == "client_write":
            return server.client_write(self.client, self.link, op.path,
                                       op.offset, data)
        if op.kind == "client_read":
            return server.client_read(self.client, self.link, op.path,
                                      op.offset, op.nbytes)
        if op.kind == "ether_write":
            return server.ethernet_write(op.path, op.offset, data)
        return server.ethernet_read(op.path, op.offset, op.nbytes)

    def _stream(self):
        sim, fs = self.sim, self.server.fs
        for index, (op, data) in enumerate(zip(self.ops, self.payloads)):
            what = f"{op.kind} {op.path}+{op.offset}"
            if data:
                done = yield from self.timed(sim, "write", op.nbytes,
                                             self._request(op, data),
                                             what=what)
                if done:
                    self.shadow[op.path][op.offset:op.offset + op.nbytes] = \
                        data
            else:
                expected = bytes(
                    self.shadow[op.path][op.offset:op.offset + op.nbytes])
                yield from self.timed(sim, "read", op.nbytes,
                                      self._request(op, b""),
                                      check=expected.__eq__, what=what)
            if fs.free_segments() < self.CLEAN_BELOW:
                yield from fs.clean(max_segments=self.CLEAN_SEGMENTS)
            if (index + 1) % self.CHECKPOINT_EVERY == 0:
                yield from fs.checkpoint()

    def run(self) -> None:
        self.measure(self.sim, self._stream())

    def verify(self) -> None:
        fs = self.server.fs
        self.sim.run_process(fs.checkpoint())
        for path, content in sorted(self.shadow.items()):
            data = self.sim.run_process(fs.read(path, 0, len(content)))
            self.log.check(data == content, f"read-back: {path} differs")
        report = fsck_lfs(fs)
        self.log.check(report.ok, "fsck_lfs: " + report.render()[:200])
        self.scrub(self.server.raid, "lfs-mixed")

    def digest_state(self, digest: Digest) -> None:
        for path, content in sorted(self.shadow.items()):
            digest.text(path)
            digest.blob(bytes(content))

    def parts(self) -> dict[str, list]:
        parts = _server_parts(self.server)
        parts["links"] = [self.link]
        return parts


# ----------------------------------------------------------------------
# degraded-rebuild: a disk dies mid-stream and a full rebuild races it
# ----------------------------------------------------------------------
class DegradedRebuild(Workload):
    """Verified raid.read/raid.write while a disk dies and is rebuilt.

    The array (24 shrunken disks, 64 rows) is prefilled with seeded
    bytes.  A FaultPlan kills one disk shortly into the stream;
    once an eighth of the requests have run degraded, the disk is
    replaced and a full (unbounded) rebuild races the rest of the
    stream.  A bounded rebuild would drop its frontier and return
    zeros, which is why the rebuild is always full.
    """

    name = "degraded-rebuild"
    default_ops = 1200
    DISK_BYTES = 4 * MIB
    DEATH_AFTER_S = 1.0  # simulated seconds into the stream
    #: The disk that dies, as in the rebuild-under-load experiment.
    VICTIM = 7

    def setup(self) -> None:
        self.sim = sim = Simulator()
        self.sims = [sim]
        disk = small_disk(self.DISK_BYTES)
        self.server = Raid2Server(sim, Raid2Config.paper_default(
            disk_spec=disk))
        self.raid = raid = self.server.raid
        # Seeded content: the payload pool repeated at a seeded skew.
        self.shadow = bytearray(raid.capacity_bytes)
        skew = self.rng.randrange(POOL_BYTES)
        ring = self.pool[skew:] + self.pool[:skew]
        for offset in range(0, len(self.shadow), POOL_BYTES):
            take = min(POOL_BYTES, len(self.shadow) - offset)
            self.shadow[offset:offset + take] = ring[:take]
        row = raid.layout.data_units_per_row * UNIT

        def prefill():
            for offset in range(0, raid.capacity_bytes, row):
                yield from raid.write(offset,
                                      bytes(self.shadow[offset:offset + row]))
                self.mark()

        sim.run_process(prefill())

    def plan(self) -> None:
        rng, raid = self.rng, self.raid
        self.ops = []
        kinds = self.dealt((("write", 1), ("read", 1)))
        sectors = self.sizes(128, 512, self.n_ops)
        for kind, count in zip(kinds, sectors):
            nbytes = count * SECTOR_SIZE
            offset = rng.randrange(
                (raid.capacity_bytes - nbytes) // SECTOR_SIZE + 1) \
                * SECTOR_SIZE
            data = self.payload(nbytes) if kind == "write" else b""
            self.ops.append((offset, nbytes, data))
        plan = FaultPlan.of(DiskDeath(raid.paths[self.VICTIM].disk.name,
                                      at_s=self.sim.now
                                      + self.DEATH_AFTER_S))
        attach_server(plan, self.server)

    def _stream(self):
        sim, raid = self.sim, self.raid
        victim = raid.paths[self.VICTIM].disk
        degraded_done = 0
        rebuild = None
        for offset, nbytes, data in self.ops:
            what = f"{nbytes}B@{offset}"
            if data:
                done = yield from self.timed(sim, "write", nbytes,
                                             raid.write(offset, data),
                                             what=what)
                if done:
                    self.shadow[offset:offset + nbytes] = data
            else:
                expected = bytes(self.shadow[offset:offset + nbytes])
                yield from self.timed(sim, "read", nbytes,
                                      raid.read(offset, nbytes),
                                      check=expected.__eq__, what=what)
            if victim.failed and rebuild is None:
                degraded_done += 1
                if degraded_done >= self.n_ops // 8:
                    victim.repair()
                    self.rebuild_start = sim.now
                    rebuild = sim.process(raid.rebuild(self.VICTIM))
        self.client_end = sim.now
        if rebuild is None:
            self.log.fail("the disk death never fired; no rebuild ran")
            return
        yield rebuild
        self.steps["rebuild"] = sim.now - self.rebuild_start

    def run(self) -> None:
        # Client MB/s counts the client stream only; the rebuild's
        # tail after it is sim_rebuild_s.
        start = self.sim.now
        self.sim.run_process(self._stream())
        self.sim_elapsed_s = self.client_end - start

    def verify(self) -> None:
        raid = self.raid
        row = raid.layout.data_units_per_row * UNIT
        for offset in range(0, raid.capacity_bytes, row):
            self.log.check(raid.peek(offset, row)
                           == self.shadow[offset:offset + row],
                           f"read-back: row at {offset} differs")
        self.scrub(raid, "degraded-rebuild")

    def digest_state(self, digest: Digest) -> None:
        digest.blob(bytes(self.shadow))

    def parts(self) -> dict[str, list]:
        return _server_parts(self.server)


# ----------------------------------------------------------------------
# crash-recovery: LFS roll-forward against FFS fsck on one file set
# ----------------------------------------------------------------------
class CrashRecovery(Workload):
    """Section 3.1's recovery claim on an aged, seeded file set.

    Both volumes (equal 8-disk RAID 5 arrays) are prefilled with the
    same cold files, half of which are then deleted.  The measured phase ages the same new files onto
    both, then syncs, crashes and remounts the LFS volume (roll-forward)
    and runs a full fsck on the FFS volume; both read the new files
    back through their file system.
    """

    name = "crash-recovery"
    default_ops = 110  # files aged in the measured phase
    COLD_FILES = 40
    DISK_BYTES = 32 * MIB
    NDISKS = 8
    REWRITTEN = 8  # files rewritten after the LFS checkpoint
    SPEC = dataclasses.replace(LFS_SPEC, fs_overhead_s=0.0,
                               small_write_overhead_s=0.0)

    def _array(self, sim: Simulator) -> Raid5Controller:
        disk = small_disk(self.DISK_BYTES)
        paths = [DirectDiskPath(DiskDrive(sim, disk, name=f"d{index}"))
                 for index in range(self.NDISKS)]
        return Raid5Controller(sim, paths, UNIT)

    def setup(self) -> None:
        self.lfs_sim, self.ffs_sim = Simulator(), Simulator()
        self.sims = [self.lfs_sim, self.ffs_sim]
        self.lfs_raid = self._array(self.lfs_sim)
        self.ffs_raid = self._array(self.ffs_sim)
        self.inodes = self.n_ops + self.COLD_FILES + 16
        self.lfs = LogStructuredFS(self.lfs_sim, self.lfs_raid,
                                   spec=self.SPEC, max_inodes=self.inodes)
        self.ffs = UpdateInPlaceFS(self.ffs_sim, self.ffs_raid,
                                   max_files=self.inodes)
        self.remounted: Optional[LogStructuredFS] = None
        cold = self._file_set("/cold", self.COLD_FILES)
        # Every other cold file is deleted again, so the FFS free space
        # the measured phase allocates from is full of holes.
        deleted = sorted(cold)[::2]

        def prefill(fs):
            yield from fs.format()
            for path, data in cold.items():
                yield from fs.create(path)
                yield from fs.write(path, 0, data)
                self.mark()
            for path in deleted:
                yield from fs.unlink(path)

        self.lfs_sim.run_process(prefill(self.lfs))
        self.lfs_sim.run_process(self.lfs.checkpoint())
        self.ffs_sim.run_process(prefill(self.ffs))
        self.cold = {path: data for path, data in cold.items()
                     if path not in deleted}

    def _file_set(self, prefix: str, count: int) -> dict[str, bytes]:
        return {f"{prefix}{index:04d}": self.payload(sectors * SECTOR_SIZE)
                for index, sectors in enumerate(self.sizes(96, 288, count))}

    def plan(self) -> None:
        rng = self.rng
        self.files = self._file_set("/f", self.n_ops)
        # FFS ages in two passes, the second in shuffled order, like
        # the recovery-time experiment; the first pass covers a seeded
        # 20-44 KiB of each file.
        self.first_pass = {
            path: sectors * SECTOR_SIZE for path, sectors
            in zip(self.files, self.sizes(40, 88, len(self.files)))}
        self.order = list(self.files)
        rng.shuffle(self.order)
        self.rewrites = []
        for path in rng.sample(sorted(self.files),
                               min(self.REWRITTEN, len(self.files))):
            size = len(self.files[path])
            nbytes = rng.randint(8, 64) * SECTOR_SIZE
            offset = rng.randrange(
                (size - nbytes) // SECTOR_SIZE + 1) * SECTOR_SIZE
            self.rewrites.append((path, offset, self.payload(nbytes)))
        self.shadow = {path: bytearray(data)
                       for path, data in self.files.items()}
        self.shadow.update((path, bytearray(data))
                           for path, data in self.cold.items())
        for path, offset, data in self.rewrites:
            self.shadow[path][offset:offset + len(data)] = data

    def _age_lfs(self):
        sim, fs = self.lfs_sim, self.lfs
        for path, data in self.files.items():
            yield from fs.create(path)
            yield from self.timed(sim, "write", len(data),
                                  fs.write(path, 0, data), what=path)
        yield from fs.checkpoint()
        # Post-checkpoint activity for roll-forward to replay.
        for path, offset, data in self.rewrites:
            yield from self.timed(sim, "write", len(data),
                                  fs.write(path, offset, data), what=path)
        yield from fs.sync()

    def _age_ffs(self):
        sim, fs = self.ffs_sim, self.ffs
        # The shuffled second pass scatters the indirect blocks the way
        # an aged update-in-place volume does.
        for path, data in self.files.items():
            first = self.first_pass[path]
            yield from fs.create(path)
            yield from self.timed(sim, "write", first,
                                  fs.write(path, 0, data[:first]), what=path)
        for path in self.order:
            first = self.first_pass[path]
            rest = self.files[path][first:]
            yield from self.timed(sim, "write", len(rest),
                                  fs.write(path, first, rest), what=path)
        for path, offset, data in self.rewrites:
            yield from self.timed(sim, "write", len(data),
                                  fs.write(path, offset, data), what=path)

    def _read_back(self, sim: Simulator, fs):
        # Each new file in two reads: its first and its second half.
        for path in self.files:
            content = self.shadow[path]
            half = len(content) // 2 // SECTOR_SIZE * SECTOR_SIZE
            for offset, end in ((0, half), (half, len(content))):
                expected = bytes(content[offset:end])
                yield from self.timed(sim, "read", end - offset,
                                      fs.read(path, offset, end - offset),
                                      check=expected.__eq__, what=path)

    def _crash_and_mount(self):
        sim = self.lfs_sim
        self.lfs.crash()
        self.remounted = LogStructuredFS(sim, self.lfs_raid, spec=self.SPEC,
                                         max_inodes=self.inodes)
        start = sim.now
        yield from self.remounted.mount()
        self.steps["lfs_mount"] = sim.now - start
        yield from self._read_back(sim, self.remounted)

    def _fsck_ffs(self):
        sim = self.ffs_sim
        start = sim.now
        self.ffs_report = yield from self.ffs.fsck()
        self.steps["ffs_fsck"] = sim.now - start
        yield from self._read_back(sim, self.ffs)

    def run(self) -> None:
        self.measure(self.lfs_sim, self._age_lfs())
        self.measure(self.lfs_sim, self._crash_and_mount())
        self.measure(self.ffs_sim, self._age_ffs())
        self.measure(self.ffs_sim, self._fsck_ffs())

    def verify(self) -> None:
        self.log.check(self.ffs_report["errors"] == 0,
                       f"ffs fsck: {self.ffs_report}")
        for sim, fs in ((self.lfs_sim, self.remounted),
                        (self.ffs_sim, self.ffs)):
            for path in self.cold:
                content = self.shadow[path]
                data = sim.run_process(fs.read(path, 0, len(content)))
                self.log.check(data == content, f"read-back: {path} differs")
        self.lfs_sim.run_process(self.remounted.checkpoint())
        report = fsck_lfs(self.remounted)
        self.log.check(report.ok, "fsck_lfs: " + report.render()[:200])
        self.scrub(self.lfs_raid, "crash-recovery lfs")
        self.scrub(self.ffs_raid, "crash-recovery ffs")

    def digest_state(self, digest: Digest) -> None:
        for path, content in sorted(self.shadow.items()):
            digest.text(path)
            digest.blob(bytes(content))
        digest.text(repr(sorted(self.ffs_report.items())))

    def parts(self) -> dict[str, list]:
        raids = [self.lfs_raid, self.ffs_raid]
        lfs = [self.lfs] + ([self.remounted] if self.remounted else [])
        return {
            "disks": [path.disk for raid in raids for path in raid.paths],
            "raids": raids, "lfs": lfs, "ffs": [self.ffs],
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HwRandom, LfsMixed, DegradedRebuild,
                              CrashRecovery)
}
