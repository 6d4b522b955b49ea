"""Test and benchmarking utilities.

:class:`MemoryDevice` is a flat byte-addressed device with a simple
bandwidth/latency model — it satisfies the same device protocol as a
RAID controller (timed ``read``/``write`` processes plus instant
``peek``/``poke`` and ``capacity_bytes``), which lets file-system
logic be exercised and benchmarked in isolation from the disk array.

A :class:`MemoryDevice` carries the same ``faults`` hook as a
:class:`~repro.hw.DiskDrive`, so a :class:`~repro.faults.FaultInjector`
attaches to it like a disk (``injector.attach(disks=[device])``) and a
plan's :class:`~repro.faults.HostCrash` counts its writes as they land.
"""

from __future__ import annotations

from repro.errors import ConsistencyError, HardwareError
from repro.sim import BandwidthChannel, Simulator


class MemoryDevice:
    """A byte-addressed storage device backed by a bytearray."""

    def __init__(self, sim: Simulator, capacity_bytes: int,
                 rate_mb_s: float = 100.0, per_op_latency_s: float = 0.0001,
                 name: str = "memdev"):
        if capacity_bytes <= 0:
            raise HardwareError("capacity must be positive")
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.channel = BandwidthChannel(
            sim, rate_mb_s=rate_mb_s,
            per_transfer_overhead=per_op_latency_s, name=f"{name}.chan")
        self._store = bytearray(capacity_bytes)
        #: Optional fault-injection hook, as on a DiskDrive.
        self.faults = None
        self.reads = 0
        self.writes = 0
        sim.metrics.expose(name, self, {"reads": "", "writes": ""})

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise HardwareError(
                f"range [{offset}, {offset + nbytes}) outside device")

    def read(self, offset: int, nbytes: int):
        """Process: read ``nbytes`` at ``offset``."""
        self._check(offset, nbytes)
        faults = self.faults
        if faults is not None:
            faults.on_disk_op(self, "read")
        yield from self.channel.transfer(nbytes)
        self.reads += 1
        return bytes(self._store[offset:offset + nbytes])

    def write(self, offset: int, data: bytes):
        """Process: write ``data`` at ``offset``."""
        self._check(offset, len(data))
        faults = self.faults
        if faults is not None:
            faults.on_disk_op(self, "write")
        yield from self.channel.transfer(len(data))
        if faults is not None and faults.crash_armed:
            faults.on_landing(self, offset, data)
        self._store[offset:offset + len(data)] = data
        self.writes += 1
        return None

    def peek(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return bytes(self._store[offset:offset + nbytes])

    def poke(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._store[offset:offset + len(data)] = data

    def snapshot(self) -> bytes:
        """The whole image, for :meth:`restore` (instant, untimed)."""
        return bytes(self._store)

    def restore(self, image: bytes) -> None:
        """Replace the whole image with a :meth:`snapshot`."""
        if len(image) != self.capacity_bytes:
            raise HardwareError(
                f"a {len(image)}-byte image does not fit {self.name} "
                f"({self.capacity_bytes} bytes)")
        self._store[:] = image


def assert_fs_consistent(fs) -> None:
    """Checkpoint ``fs`` and fsck it; raise ConsistencyError on findings.

    Intended as the last line of an LFS integration test: flushes the
    volatile state (so the on-disk image is complete) and then runs the
    offline checker from :mod:`repro.analysis.fsck_lfs` over it.
    """
    from repro.analysis.fsck_lfs import fsck

    fs.sim.run_process(fs.checkpoint(), name="fsck-checkpoint")
    report = fsck(fs)
    if not report.ok:
        raise ConsistencyError(report.render())


def assert_parity_clean(controller, max_rows=None):
    """Scrub a RAID array; raise ConsistencyError on any mismatched row.

    Returns the :class:`~repro.analysis.scrub_raid.ScrubReport`, so a
    caller can also check ``rows_checked`` (degraded rows are skipped,
    not checked).
    """
    from repro.analysis.scrub_raid import scrub_array

    report = scrub_array(controller, max_rows=max_rows)
    if not report.ok:
        raise ConsistencyError(report.render())
    return report
