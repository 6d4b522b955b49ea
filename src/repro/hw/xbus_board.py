"""The assembled XBUS disk-array controller board.

One board (Figure 4) couples:

* four VME **data ports**, each to one Cougar controller (two SCSI
  strings of disks each),
* optionally a fifth Cougar on the **control port** (the configuration
  of Table 1's sequential experiment),
* two unidirectional **HIPPI ports** (source and destination),
* the **parity engine** port, and
* four interleaved **memory banks** used as the board's buffer pool.

The board exposes *disk paths* — per-disk adapters whose ``read``/
``write`` processes move real bytes through disk mechanics, the SCSI
string, the Cougar, the VME port and XBUS memory, with the stages run
concurrently to model cut-through.  The RAID layer is written against
this adapter interface and never needs to know the topology.

Disk ordering (the striping order) interleaves *first* strings across
all controllers before any *second* string:
``index = string * (disks_per_string * n_cougars) + disk * n_cougars
+ cougar``.  Consecutive stripe units therefore land on different
controllers, and a request only engages a controller's second string
once it spans more than ``disks_per_string * n_cougars`` units — the
mechanism behind Figure 5's dip at 768 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import HardwareError
from repro.hw.cougar import CougarController
from repro.hw.disk import DiskDrive
from repro.hw.hippi import HippiPort
from repro.hw.parity import ParityEngine
from repro.hw.specs import (COUGAR_SPEC, IBM_0661, SCSI_STRING_SPEC,
                            VME_CONTROL_PORT_SPEC, VME_DATA_PORT_SPEC,
                            XBUS_SPEC, CougarSpec, DiskSpec, ScsiStringSpec)
from repro.hw.vme import Direction, VmePort
from repro.units import SECTOR_SIZE
from repro.hw.xbus_memory import XbusMemory
from repro.sim import Simulator


@dataclass(frozen=True)
class XbusConfig:
    """Shape of one XBUS board's disk subsystem."""

    data_cougars: int = 4
    strings_per_cougar: int = 2
    disks_per_string: int = 3
    disk_spec: DiskSpec = IBM_0661
    #: Attach a fifth Cougar to the control port (Table 1's setup).
    control_cougar: bool = False

    @property
    def total_disks(self) -> int:
        cougars = self.data_cougars + (1 if self.control_cougar else 0)
        return cougars * self.strings_per_cougar * self.disks_per_string


#: Leg names of a disk path's stages: the memory leg is the bank
#: channel's own transfer, so the names are given, not taken from it.
_READ_LEGS = ("read", "transfer", "access")
_WRITE_LEGS = ("access", "transfer", "write")


class XbusDiskPath:
    """Adapter: one disk reachable through its Cougar + VME port.

    ``read``/``write`` are full-path processes: all data-movement legs
    (Cougar side and VME-port/memory side) run concurrently, so the
    operation takes the slowest leg, which is how the real cut-through
    FIFOs behaved.
    """

    def __init__(self, board: "XbusBoard", cougar: CougarController,
                 port: VmePort, disk: DiskDrive):
        self.sim = board.sim
        self.board = board
        self.cougar = cougar
        self.port = port
        self.disk = disk

    @property
    def name(self) -> str:
        return self.disk.name

    def read(self, lba: int, nsectors: int):
        """Process: disk -> ... -> XBUS memory; returns the bytes."""
        nbytes = nsectors * SECTOR_SIZE
        values = yield self.sim.fork([
            self.cougar.read(self.disk, lba, nsectors),
            self.port.transfer(nbytes, Direction.READ),
            self.board.memory.channel.transfer(nbytes),
        ], _READ_LEGS)
        return values[0]

    def write(self, lba: int, data: bytes):
        """Process: XBUS memory -> ... -> disk."""
        nbytes = len(data)
        yield self.sim.fork([
            self.board.memory.channel.transfer(nbytes),
            self.port.transfer(nbytes, Direction.WRITE),
            self.cougar.write(self.disk, lba, data),
        ], _WRITE_LEGS)
        return None


class XbusBoard:
    """One XBUS controller board with its attached disk subsystem."""

    def __init__(self, sim: Simulator, config: XbusConfig = XbusConfig(),
                 cougar_spec: CougarSpec = COUGAR_SPEC,
                 string_spec: ScsiStringSpec = SCSI_STRING_SPEC,
                 name: str = "xbus"):
        if not 1 <= config.data_cougars <= 4:
            raise HardwareError(
                f"an XBUS board has four VME data ports; "
                f"got {config.data_cougars} cougars")
        self.sim = sim
        self.config = config
        self.name = name
        self.memory = XbusMemory(sim, XBUS_SPEC, name=f"{name}.mem")
        self.parity_engine = ParityEngine(sim, XBUS_SPEC, name=f"{name}.xor")
        self.hippi_source = HippiPort(sim, name=f"{name}.hippis")
        self.hippi_dest = HippiPort(sim, name=f"{name}.hippid")
        self.control_port = VmePort(sim, VME_CONTROL_PORT_SPEC,
                                    name=f"{name}.link")

        self.data_ports: list[VmePort] = []
        self.cougars: list[CougarController] = []
        self._cougar_port: dict[int, VmePort] = {}

        for index in range(config.data_cougars):
            port = VmePort(sim, VME_DATA_PORT_SPEC, name=f"{name}.vme{index}")
            cougar = CougarController(sim, cougar_spec, string_spec,
                                      name=f"{name}.c{index}")
            self.data_ports.append(port)
            self.cougars.append(cougar)
            self._cougar_port[id(cougar)] = port
        if config.control_cougar:
            cougar = CougarController(
                sim, cougar_spec, string_spec,
                name=f"{name}.c{config.data_cougars}")
            self.cougars.append(cougar)
            self._cougar_port[id(cougar)] = self.control_port

        self._populate_disks()

    def _populate_disks(self) -> None:
        config = self.config
        for cougar_index, cougar in enumerate(self.cougars):
            for string_index, string in enumerate(cougar.strings):
                for disk_index in range(config.disks_per_string):
                    disk = DiskDrive(
                        self.sim, config.disk_spec,
                        name=(f"{self.name}.d{cougar_index}."
                              f"{string_index}.{disk_index}"))
                    string.attach(disk)

    # ------------------------------------------------------------------
    # disk paths in striping order
    # ------------------------------------------------------------------
    def disk_paths(self, limit: Optional[int] = None) -> list[XbusDiskPath]:
        """All disk paths in striping (string-major interleaved) order."""
        paths: list[XbusDiskPath] = []
        config = self.config
        for string_index in range(config.strings_per_cougar):
            for disk_index in range(config.disks_per_string):
                for cougar in self.cougars:
                    string = cougar.strings[string_index]
                    disk = string.disks[disk_index]
                    port = self._cougar_port[id(cougar)]
                    paths.append(XbusDiskPath(self, cougar, port, disk))
        if limit is not None:
            if limit > len(paths):
                raise HardwareError(
                    f"asked for {limit} disks, board has {len(paths)}")
            paths = paths[:limit]
        return paths

    @property
    def disks(self) -> list[DiskDrive]:
        return [path.disk for path in self.disk_paths()]

    # ------------------------------------------------------------------
    # network-side data movement
    # ------------------------------------------------------------------
    def send_hippi(self, nbytes: int, packets: int = 1):
        """Process: XBUS memory -> HIPPI source port -> network."""
        yield self.sim.fork([
            self.memory.access(nbytes),
            self.hippi_source.send(nbytes, packets),
        ], ("access", "send"))
        return None

    def receive_hippi(self, nbytes: int, packets: int = 1):
        """Process: network -> HIPPI destination port -> XBUS memory."""
        yield self.sim.fork([
            self.hippi_dest.send(nbytes, packets),
            self.memory.access(nbytes),
        ], ("send", "access"))
        return None

    def hippi_loopback(self, nbytes: int, packets: int = 1):
        """Process: memory -> source -> destination -> memory (Figure 6).

        The two directions stream concurrently — the destination board
        consumes the stream as the source emits it, which is how the
        loopback sustains 38.5 MB/s *in each direction*.
        """
        yield self.sim.fork([
            self.send_hippi(nbytes, packets),
            self.receive_hippi(nbytes, packets),
        ])
        return None

    # ------------------------------------------------------------------
    # host-side (control path) data movement
    # ------------------------------------------------------------------
    def to_host(self, nbytes: int):
        """Process: XBUS memory -> control port (toward host memory)."""
        yield self.sim.fork([
            self.memory.access(nbytes),
            self.control_port.transfer(nbytes, Direction.WRITE),
        ], ("access", "transfer"))
        return None

    def from_host(self, nbytes: int):
        """Process: control port -> XBUS memory."""
        yield self.sim.fork([
            self.control_port.transfer(nbytes, Direction.READ),
            self.memory.access(nbytes),
        ], ("transfer", "access"))
        return None

    # ------------------------------------------------------------------
    # parity
    # ------------------------------------------------------------------
    def compute_parity(self, blocks: Sequence[bytes]):
        """Process: XOR ``blocks`` via the parity engine; returns parity.

        Charges the engine port plus the matching memory-bank traffic.
        """
        traffic = sum(len(block) for block in blocks) + len(blocks[0])
        values = yield self.sim.fork([
            self.parity_engine.compute(blocks),
            self.memory.access(traffic),
        ], ("compute", "access"))
        return values[0]
