"""Component specifications and calibration constants.

Every number in this file is either quoted directly from the paper
("RAID-II: A High-Bandwidth Network File Server", ISCA 1994) or fitted
so that the microbenchmarks in ``experiments/`` reproduce the paper's
published curves.  Each constant carries a provenance note.

The simulated prototype is calibrated against these published anchors:

* single Wren IV sustains 1.3 MB/s; RAID-I delivers at most 2.3 MB/s
  to an application (Section 1),
* the Sun 4/280 backplane saturates at 9 MB/s (Section 1),
* a Cougar SCSI string sustains about 3 MB/s (Figure 7),
* VME data ports sustain 6.9 MB/s reads / 5.9 MB/s writes (Section 2.3),
* HIPPI loopback reaches 38.5 MB/s with ~1.1 ms per-packet setup
  (Figure 6),
* hardware system level: ~20 MB/s random, 31/23 MB/s sequential
  read/write (Figure 5, Table 1),
* small I/O: ~275 IO/s (RAID-I) vs ~400 IO/s (RAID-II) on fifteen
  disks (Table 2),
* LFS: ~21 MB/s large reads, ~15 MB/s writes, 23 ms small-read
  overhead, 3 ms small-write overhead (Figure 8, Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KIB, MB, MIB, MS, SECTOR_SIZE


@dataclass(frozen=True)
class DiskSpec:
    """Mechanical and interface parameters of one disk drive model."""

    name: str
    capacity_bytes: int
    rpm: float
    #: Single-cylinder and full-stroke seek times; the seek curve is
    #: ``min + (max - min) * sqrt(distance_fraction)`` whose random
    #: average works out to ``min + 0.533 * (max - min)``.
    min_seek_s: float
    max_seek_s: float
    sectors_per_track: int
    tracks_per_cylinder: int
    #: Fixed command/controller overhead charged per operation.
    per_op_overhead_s: float
    #: Fraction of a revolution charged to a *sequential* write, which
    #: (unlike reads) gets no benefit from the track read-ahead buffer
    #: ("writes have no such advantage on these disks", Section 2.3).
    sequential_write_rotation_fraction: float
    #: Forward gap (in sectors) a read may skip and still hit the track
    #: read-ahead buffer.  RAID-5 parity rotation makes a disk's
    #: sequential data units skip one stripe unit whenever a row parks
    #: its parity there; the drive's read-ahead covers such gaps.
    readahead_window_sectors: int = 256

    @property
    def revolution_time_s(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        return self.revolution_time_s / 2.0

    @property
    def track_bytes(self) -> int:
        return self.sectors_per_track * SECTOR_SIZE

    @property
    def cylinder_bytes(self) -> int:
        return self.track_bytes * self.tracks_per_cylinder

    @property
    def num_cylinders(self) -> int:
        return max(1, self.capacity_bytes // self.cylinder_bytes)

    @property
    def media_rate_mb_s(self) -> float:
        """Sustained media transfer rate (one track per revolution)."""
        return self.track_bytes / self.revolution_time_s / MB

    @property
    def avg_seek_s(self) -> float:
        """Average random seek implied by the sqrt seek curve."""
        return self.min_seek_s + 0.533 * (self.max_seek_s - self.min_seek_s)


#: The 3.5-inch 320 MB IBM 0661 drives of RAID-II (Section 2.2).
#: 4316 rpm and the seek range give the "faster rotation and seek times"
#: the paper credits for RAID-II's higher I/O rates (Table 2); the
#: 60-sector track puts the media rate at ~2.2 MB/s so that one disk on
#: a string delivers ~2 MB/s (the first point of Figure 7).
IBM_0661 = DiskSpec(
    name="IBM 0661",
    capacity_bytes=320 * MB,
    rpm=4316.0,
    min_seek_s=2.0 * MS,
    max_seek_s=21.7 * MS,  # avg = 2.0 + 0.533 * 19.7 = 12.5 ms
    sectors_per_track=60,  # 30 KB/track / 13.9 ms rev = 2.21 MB/s media
    tracks_per_cylinder=14,
    per_op_overhead_s=2.0 * MS,
    sequential_write_rotation_fraction=0.5,
)

#: The 5.25-inch Seagate Wren IV drives of RAID-I (Section 1): slower
#: seek and rotation.  The 48-sector track puts the media rate at
#: ~1.44 MB/s so that, together with SCSI and host costs, a single
#: disk sustains the paper's 1.3 MB/s through the RAID-I host path.
SEAGATE_WREN_IV = DiskSpec(
    name="Seagate Wren IV",
    capacity_bytes=344 * MB,
    rpm=3600.0,
    min_seek_s=3.0 * MS,
    max_seek_s=30.2 * MS,  # avg = 3.0 + 0.533 * 27.2 = 17.5 ms
    sectors_per_track=48,  # 24 KB/track / 16.7 ms rev = 1.44 MB/s media
    tracks_per_cylinder=9,
    per_op_overhead_s=2.5 * MS,
    sequential_write_rotation_fraction=0.5,
)


@dataclass(frozen=True)
class ScsiStringSpec:
    """One SCSI string (bus) hanging off a Cougar controller."""

    #: "Cougar string bandwidth is limited to about 3 megabytes/second"
    #: (Figure 7 caption).  Set at the top of that range: Table 1's
    #: 31 MB/s from ten saturated strings needs ~3.1 MB/s each
    #: net of command overhead.
    rate_mb_s: float = 3.55
    #: String bandwidth for writes.  Writes carry extra SCSI handshake
    #: per block and get none of the controller's read streaming;
    #: fitted so ten saturated strings deliver Table 1's 23 MB/s
    #: sequential writes against 31 MB/s reads.
    write_rate_mb_s: float = 3.05
    #: SCSI selection/command/status and disconnect/reconnect phases
    #: occupy the bus for about 2 ms per command on 1993-era SCSI.
    per_transfer_overhead_s: float = 2.0 * MS
    #: Paper configuration: three disks per string (Section 2.2).
    disks_per_string: int = 3


SCSI_STRING_SPEC = ScsiStringSpec()


@dataclass(frozen=True)
class CougarSpec:
    """Interphase Cougar dual-string VME disk controller."""

    #: "The Cougar disk controllers can transfer data at 8 MB/s"
    #: (Section 2.2).
    rate_mb_s: float = 8.0
    per_transfer_overhead_s: float = 0.2 * MS
    strings: int = 2
    #: Serial command-handling delay charged to an operation started
    #: while the controller's *other* string is busy.  This is the
    #: "contention on the controller ... when both strings are used"
    #: responsible for the dip at 768 KB in Figure 5; fitted to the
    #: dip's depth.
    dual_string_penalty_s: float = 8.0 * MS


COUGAR_SPEC = CougarSpec()


@dataclass(frozen=True)
class VmePortSpec:
    """An XBUS VME interface port.

    "our relatively slow, synchronous VME interface ports ... only
    support 6.9 megabytes/second on read operations and 5.9
    megabytes/second on write operations" (Section 2.3).  Reads move
    data disk->XBUS memory; writes move XBUS memory->disk.
    """

    read_rate_mb_s: float = 6.9
    write_rate_mb_s: float = 5.9
    per_transfer_overhead_s: float = 0.1 * MS


VME_DATA_PORT_SPEC = VmePortSpec()

#: The XBUS control (TMC-VME link) port that connects the board to the
#: host.  Table 1's sequential experiment attached a *fifth* Cougar to
#: it; the port hardware matches the data ports, derated slightly for
#: the control traffic and register accesses it also carries.
VME_CONTROL_PORT_SPEC = VmePortSpec(
    read_rate_mb_s=6.0,
    write_rate_mb_s=5.2,
    per_transfer_overhead_s=0.2 * MS,
)


@dataclass(frozen=True)
class XbusSpec:
    """The XBUS crossbar board (Section 2.2, Figure 4)."""

    #: "Each port was intended to support 40 megabytes/second" --
    #: 32-bit ports at 80 ns cycle time.
    port_rate_mb_s: float = 40.0
    memory_banks: int = 4
    #: 8 MB DRAM per bank (Figure 4).
    bank_bytes: int = 8 * MIB
    #: Each bank matches port speed; four banks give the board its
    #: 160 MB/s aggregate.
    bank_rate_mb_s: float = 40.0
    #: Memory is interleaved in sixteen-word (64-byte) blocks; we model
    #: interleaving by spreading transfers across banks round-robin.
    interleave_bytes: int = 64


XBUS_SPEC = XbusSpec()


@dataclass(frozen=True)
class HippiSpec:
    """TMC HIPPI source/destination boards attached to the XBUS."""

    #: Figure 6: loopback sustains 38.5 MB/s in each direction --
    #: "very close to the maximum bandwidth of the XBUS ports".
    port_rate_mb_s: float = 38.5
    #: "the overhead of sending a HIPPI packet is about 1.1
    #: milliseconds, mostly due to setting up the HIPPI and XBUS
    #: control registers across the slow VME link" (Section 2.3).
    packet_overhead_s: float = 1.1 * MS
    #: Largest burst a single HIPPI packet carries into the 32 KB FIFO
    #: interfaces; larger requests stream as one packet per request in
    #: the loopback microbenchmark, so the overhead is charged per
    #: request there.
    fifo_bytes: int = 32 * KIB


HIPPI_SPEC = HippiSpec()


@dataclass(frozen=True)
class EthernetSpec:
    """The 10 Mb/s Ethernet on the host workstation."""

    rate_mb_s: float = 1.25  # 10 megabits/second
    #: Fixed protocol-processing cost per packet.  The paper's "an
    #: Ethernet packet takes approximately 0.5 millisecond to transfer"
    #: (Section 2.3) corresponds to a ~625-byte frame at line rate;
    #: splitting that into 0.3 ms fixed + payload at line rate keeps
    #: both small-RPC latency and bulk throughput plausible.
    packet_overhead_s: float = 0.3 * MS
    mtu_bytes: int = 1500


ETHERNET_SPEC = EthernetSpec()


@dataclass(frozen=True)
class WorkstationSpec:
    """A host or client workstation's CPU/memory/backplane model."""

    name: str
    #: Effective memory-system copy bandwidth.  A kernel-to-user copy
    #: makes a read pass and a write pass; DMA makes one pass.  RAID-I
    #: saturated at 2.3 MB/s delivered, i.e. ~3 passes over a ~7 MB/s
    #: memory system (Section 1).
    memory_copy_rate_mb_s: float
    #: "the low backplane bandwidth of the Sun 4/280's system bus ...
    #: becomes saturated at 9 megabytes/second" (Section 1).
    backplane_rate_mb_s: float
    #: CPU cost to field one I/O request/completion (system call,
    #: context switches, interrupt handling).  Fitted to Table 2's
    #: fifteen-disk rates: RAID-II ~400 IO/s -> 2.5 ms; RAID-I ~275
    #: IO/s -> 3.4 ms (extra copy management on the data path).
    per_io_cpu_s: float


SUN_4_280_RAID2 = WorkstationSpec(
    name="Sun 4/280 (RAID-II host)",
    memory_copy_rate_mb_s=7.0,
    backplane_rate_mb_s=9.0,
    per_io_cpu_s=2.5 * MS,
)

SUN_4_280_RAID1 = WorkstationSpec(
    name="Sun 4/280 (RAID-I host)",
    memory_copy_rate_mb_s=7.0,
    backplane_rate_mb_s=9.0,
    per_io_cpu_s=3.4 * MS,
)

#: SPARCstation 10/51 client (Section 3.4): its "user-level network
#: interface implementation performs many copy operations", limiting a
#: single client to ~3.1 MB/s writes and ~3.2 MB/s reads.
SPARCSTATION_10_51 = WorkstationSpec(
    name="SPARCstation 10/51",
    memory_copy_rate_mb_s=9.6,  # three passes -> ~3.2 MB/s delivered
    backplane_rate_mb_s=80.0,
    per_io_cpu_s=1.0 * MS,
)


@dataclass(frozen=True)
class LfsSpec:
    """Sprite-LFS-on-RAID-II parameters (Section 3.4)."""

    #: "The log is written to the disk array in units or segments of
    #: 960 kilobytes."
    segment_bytes: int = 960 * KIB
    #: "4 milliseconds of file system overhead" per operation plus
    #: "19 milliseconds of disk overhead" for small random reads
    #: (the 19 ms emerges from the disk model; only the FS part is a
    #: constant here).
    fs_overhead_s: float = 4.0 * MS
    #: "approximately 3 milliseconds of network and file system
    #: overhead per request" for small writes.
    small_write_overhead_s: float = 3.0 * MS
    #: File-system read-ahead: on a sequential access, up to this many
    #: extra blocks are fetched into the XBUS prefetch buffers ("LFS
    #: performs prefetching into XBUS memory buffers ... so small
    #: sequential reads can also benefit", Section 3.2).  0 disables.
    readahead_blocks: int = 32


LFS_SPEC = LfsSpec()
