"""Test and benchmarking utilities.

:class:`MemoryDevice` is a flat byte-addressed device with a simple
bandwidth/latency model — it satisfies the same device protocol as a
RAID controller (timed ``read``/``write`` processes plus instant
``peek``/``poke`` and ``capacity_bytes``), which lets file-system
logic be exercised and benchmarked in isolation from the disk array.

:class:`CrashingDevice` wraps any device and cuts power after a byte
budget: writes beyond the budget are silently discarded (as a dying
machine's writes are), which is how the recovery tests produce torn
segment flushes at every possible point.
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
        self.reads = 0
        self.writes = 0

    def _check(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise HardwareError(
                f"range [{offset}, {offset + nbytes}) outside device")

    def read(self, offset: int, nbytes: int):
        """Process: read ``nbytes`` at ``offset``."""
        self._check(offset, nbytes)
        yield from self.channel.transfer(nbytes)
        self.reads += 1
        return bytes(self._store[offset:offset + nbytes])

    def write(self, offset: int, data: bytes):
        """Process: write ``data`` at ``offset``."""
        self._check(offset, len(data))
        yield from self.channel.transfer(len(data))
        self._store[offset:offset + len(data)] = data
        self.writes += 1
        return None

    def peek(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes)
        return bytes(self._store[offset:offset + nbytes])

    def poke(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._store[offset:offset + len(data)] = data


class PowerFailure(Exception):
    """Raised by :class:`CrashingDevice` when the write budget runs out."""


class CrashingDevice:
    """Wraps a device; after ``budget_bytes`` of writes, power is cut.

    The write during which the budget expires is applied only up to the
    budget boundary (a torn write), and the failure is raised so the
    caller can abandon the file system and test recovery.
    """

    def __init__(self, inner, budget_bytes: int):
        self.inner = inner
        self.budget_bytes = budget_bytes
        self.crashed = False

    @property
    def capacity_bytes(self) -> int:
        return self.inner.capacity_bytes

    @property
    def sim(self):
        return self.inner.sim

    def read(self, offset: int, nbytes: int):
        if self.crashed:
            raise PowerFailure("device is powered off")
        data = yield from self.inner.read(offset, nbytes)
        return data

    def write(self, offset: int, data: bytes):
        if self.crashed:
            raise PowerFailure("device is powered off")
        if len(data) <= self.budget_bytes:
            self.budget_bytes -= len(data)
            yield from self.inner.write(offset, data)
            return None
        # Torn write: only the first budget_bytes land.
        torn = data[:self.budget_bytes]
        self.budget_bytes = 0
        self.crashed = True
        if torn:
            yield from self.inner.write(offset, torn)
        raise PowerFailure("power failed during write")

    def peek(self, offset: int, nbytes: int) -> bytes:
        return self.inner.peek(offset, nbytes)


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
