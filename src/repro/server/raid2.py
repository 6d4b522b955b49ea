"""The RAID-II file server, assembled.

One host workstation, one or more XBUS boards (each with its Cougar/
SCSI/disk subsystem, HIPPI ports and parity engine), a RAID 5
controller per board, and LFS on top.  Service paths:

* **hardware level** (Section 2.3's "hardware system level
  experiments", no file system): data moves disk <-> XBUS memory <->
  HIPPI source -> HIPPI destination -> XBUS memory, pipelined in
  chunks so the network leg overlaps the next disk leg;
* **high-bandwidth mode**: client raid_read/raid_write over the
  Ultranet — bulk data crosses the HIPPI ports and *never touches the
  host memory*; the host only fields control traffic (and, in the
  paper's preliminary driver, polls during reads — modelled by holding
  the host CPU during sends, Section 3.4);
* **standard mode**: requests over Ethernet — data crosses the XBUS
  control port into host memory and out the Ethernet, the classic
  through-the-host path.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import HardwareError
from repro.host.cache import LruBlockCache
from repro.host.workstation import Workstation
from repro.hw.ethernet import Ethernet
from repro.hw.specs import SPARCSTATION_10_51, SUN_4_280_RAID2
from repro.hw.xbus_board import XbusBoard
from repro.lfs import LogStructuredFS
from repro.net.ultranet import UltranetLink
from repro.raid import Raid5Controller
from repro.server.config import Raid2Config
from repro.sim import Simulator
from repro.units import KIB, MIB

#: Pipeline chunk for streaming requests: data is sent on the network
#: while the next chunk is still coming off the disks (Section 3.3).
PIPELINE_CHUNK = 256 * KIB


class XbusParity:
    """Adapter: the board's parity engine as a RAID parity computer."""

    def __init__(self, board: XbusBoard):
        self.board = board

    def compute(self, blocks: Sequence[bytes]):
        parity = yield from self.board.compute_parity(blocks)
        return parity


def _chunks(offset: int, nbytes: int, chunk: int = PIPELINE_CHUNK):
    position = offset
    end = offset + nbytes
    while position < end:
        take = min(chunk, end - position)
        yield position, take
        position += take


class Raid2Server:
    """The RAID-II prototype."""

    def __init__(self, sim: Simulator, config: Optional[Raid2Config] = None,
                 name: str = "raid2"):
        self.sim = sim
        self.config = config or Raid2Config.paper_default()
        self.name = name
        self.host = Workstation(sim, SUN_4_280_RAID2, name=f"{name}.host")
        self.ethernet = Ethernet(sim, name=f"{name}.ether")
        self.boards = [
            XbusBoard(sim, self.config.xbus, name=f"{name}.xbus{index}")
            for index in range(self.config.boards)
        ]
        # RAID 5 needs at least three disks; configurations that use
        # fewer (single-disk microbenchmarks) expose raw disk paths only.
        self.raids = []
        if self.config.disks_used is None or self.config.disks_used >= 3:
            self.raids = [
                Raid5Controller(
                    sim, board.disk_paths(limit=self.config.disks_used),
                    self.config.stripe_unit_bytes,
                    parity_computer=XbusParity(board),
                    name=f"{name}.raid{index}")
                for index, board in enumerate(self.boards)
            ]
        self.filesystems: list[LogStructuredFS] = []
        #: "The host memory cache contains ... files that have been
        #: read into workstation memory for transfer over the Ethernet.
        #: The cache is managed with a simple Least Recently Used
        #: replacement policy" (Section 3.2).
        self.host_cache = LruBlockCache(capacity_bytes=16 * MIB,
                                        name=f"{name}.hostcache")

    # ------------------------------------------------------------------
    # convenience accessors (single-board configurations)
    # ------------------------------------------------------------------
    @property
    def board(self) -> XbusBoard:
        return self.boards[0]

    @property
    def raid(self) -> Raid5Controller:
        return self.raids[0]

    @property
    def fs(self) -> LogStructuredFS:
        if not self.filesystems:
            raise HardwareError("run setup_lfs() before using the FS paths")
        return self.filesystems[0]

    def setup_lfs(self):
        """Process: create and format LFS on every board's array.

        Segments are aligned to the array's stripe rows so that each
        full-segment flush is a full-stripe write.
        """
        for index, raid in enumerate(self.raids):
            row_bytes = (raid.layout.data_units_per_row
                         * raid.stripe_unit_bytes)
            fs = LogStructuredFS(
                self.sim, raid, spec=self.config.lfs,
                max_inodes=self.config.max_inodes, host=self.host,
                align_segments_to=row_bytes,
                name=f"{self.name}.lfs{index}")
            yield from fs.format()
            self.filesystems.append(fs)
        return None

    # ------------------------------------------------------------------
    # hardware system level (Figure 5 / Table 1 paths, no file system)
    # ------------------------------------------------------------------
    def hw_read(self, offset: int, nbytes: int, board_index: int = 0):
        """Process: array -> XBUS memory -> HIPPI out -> HIPPI in -> memory.

        The whole request is issued to the array at once (the RAID
        layer fans it out over every disk it touches) while the HIPPI
        loopback streams concurrently — the board's FIFOs let the
        network leg consume data as it lands in memory, so the
        operation finishes with the slower of the two sides.
        """
        board = self.boards[board_index]
        raid = self.raids[board_index]
        with self.sim.tracer.span("server.hw_read", self.name,
                                  nbytes=nbytes):
            legs = [
                self.sim.process(raid.read(offset, nbytes)),
                self.sim.process(board.hippi_loopback(nbytes)),
            ]
            yield self.sim.all_of(legs)
            return None

    def hw_write(self, offset: int, nbytes: int, board_index: int = 0,
                 fill: int = 0x5A):
        """Process: HIPPI in -> XBUS memory -> parity -> array.

        As with reads, the network and array sides stream concurrently.
        """
        board = self.boards[board_index]
        raid = self.raids[board_index]
        payload = bytes([fill]) * nbytes
        with self.sim.tracer.span("server.hw_write", self.name,
                                  nbytes=nbytes):
            legs = [
                self.sim.process(board.hippi_loopback(nbytes)),
                self.sim.process(raid.write(offset, payload)),
            ]
            yield self.sim.all_of(legs)
            return None

    def hw_read_through_host(self, offset: int, nbytes: int,
                             board_index: int = 0):
        """Process: the same read *without* the high-bandwidth path.

        Every chunk crosses the XBUS control port into host memory and
        is then copied to its consumer — the traditional server
        architecture the XBUS exists to avoid.  The host memory system
        becomes the bottleneck, exactly as on RAID-I.
        """
        raid = self.raids[board_index]
        board = self.boards[board_index]
        with self.sim.tracer.span("server.hw_read_through_host", self.name,
                                  nbytes=nbytes):
            for position, take in _chunks(offset, nbytes):
                yield from raid.read(position, take)
                legs = [
                    self.sim.process(board.to_host(take)),
                    self.sim.process(self.host.dma_in(take)),
                ]
                yield self.sim.all_of(legs)
                yield from self.host.copy(take)
            return None

    # ------------------------------------------------------------------
    # high-bandwidth mode (Ultranet / HIPPI clients)
    # ------------------------------------------------------------------
    def client_read(self, client: Workstation, link: UltranetLink,
                    path: str, offset: int, nbytes: int):
        """Process: a raid_read() from a network client.

        Returns the bytes delivered.  The preliminary device driver
        polls: "the host workstation waits while data are being
        transmitted from the source board to the network" (Section
        3.4), so the host CPU is held for each send — with the client's
        copy-bound network stack, this pins single-client reads around
        3 MB/s, as measured.
        """
        with self.sim.tracer.span("server.client_read", self.name,
                                  nbytes=nbytes, path=path):
            yield from link.rpc()
            data = yield from self.fs.read(path, offset, nbytes)
            for position, take in _chunks(0, len(data)):
                yield self.host.cpu.acquire()  # polling driver
                try:
                    legs = [
                        self.sim.process(self.board.send_hippi(take)),
                        self.sim.process(link.data(take)),
                        self.sim.process(client.memory.transfer(3 * take)),
                    ]
                    yield self.sim.all_of(legs)
                finally:
                    self.host.cpu.release()
            return data

    def client_write(self, client: Workstation, link: UltranetLink,
                     path: str, offset: int, data: bytes):
        """Process: a raid_write() from a network client.

        The client's user-level network stack performs three memory
        passes per byte (the copies that limit a SPARCstation 10/51 to
        ~3.1 MB/s); host CPU use is near zero (Section 3.4).
        """
        with self.sim.tracer.span("server.client_write", self.name,
                                  nbytes=len(data), path=path):
            yield from link.rpc()
            pending_write = None
            for position, take in _chunks(0, len(data)):
                legs = [
                    self.sim.process(client.memory.transfer(3 * take)),
                    self.sim.process(link.data(take)),
                    self.sim.process(self.board.receive_hippi(take)),
                ]
                yield self.sim.all_of(legs)
                if pending_write is not None:
                    yield pending_write
                # The file-system work for this chunk overlaps the
                # network legs of the next one (LFS ops themselves
                # serialize on the host, so at most one is in flight).
                pending_write = self.sim.process(self.fs.write(
                    path, offset + position,
                    data[position:position + take]))
            if pending_write is not None:
                yield pending_write
            return None

    # ------------------------------------------------------------------
    # standard mode (Ethernet clients)
    # ------------------------------------------------------------------
    def ethernet_read(self, path: str, offset: int, nbytes: int):
        """Process: an NFS-style read over the Ethernet.

        Data crosses the XBUS control port into host memory, then goes
        out the Ethernet — the low-bandwidth path of Section 2.1.1.
        Ranges already sitting in the host's LRU file cache skip the
        array and the control port entirely (Section 3.2).
        """
        with self.sim.tracer.span("server.ethernet_read", self.name,
                                  nbytes=nbytes, path=path) as span:
            yield from self.host.handle_io()
            cached = self.host_cache.get((path, offset, nbytes))
            if cached is not None:
                span.set(cache="hit")
                yield from self.ethernet.send(len(cached))
                return cached
            data = yield from self.fs.read(path, offset, nbytes)
            legs = [
                self.sim.process(self.board.to_host(len(data))),
                self.sim.process(self.host.dma_in(len(data))),
            ]
            yield self.sim.all_of(legs)
            self.host_cache.put((path, offset, nbytes), data)
            yield from self.ethernet.send(len(data))
            return data

    def ethernet_write(self, path: str, offset: int, data: bytes):
        """Process: an NFS-style write over the Ethernet.

        Keeps the host cache coherent: every cached range of the file
        is dropped ("the file system keeps the two caches consistent",
        Section 3.2).
        """
        with self.sim.tracer.span("server.ethernet_write", self.name,
                                  nbytes=len(data), path=path):
            yield from self.host.handle_io()
            yield from self.ethernet.send(len(data))
            legs = [
                self.sim.process(self.host.dma_out(len(data))),
                self.sim.process(self.board.from_host(len(data))),
            ]
            yield self.sim.all_of(legs)
            self.host_cache.invalidate_where(lambda key: key[0] == path)
            yield from self.fs.write(path, offset, data)
            return None


def make_sparcstation_client(sim: Simulator,
                             name: str = "client") -> Workstation:
    """The paper's single network client: a SPARCstation 10/51."""
    return Workstation(sim, SPARCSTATION_10_51, name=name)
