"""Exception hierarchy for the RAID-II reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class HardwareError(ReproError):
    """A hardware model was configured or used incorrectly."""


class DiskFailedError(HardwareError):
    """An I/O was issued to a disk that has been failed by fault injection."""

    def __init__(self, disk_name: str):
        super().__init__(f"disk {disk_name} has failed")
        self.disk_name = disk_name


class TransientDiskError(HardwareError):
    """A retryable SCSI-level error (bus glitch, recovered command).

    Raised by fault injection on a drive that is otherwise healthy; a
    retry of the same operation is expected to succeed.  The RAID
    layer's one retry loop absorbs these with a few quick retries
    under a doubling backoff, then reconstructs through redundancy.
    """

    def __init__(self, disk_name: str, op: str = "io"):
        super().__init__(f"transient {op} error on disk {disk_name}")
        self.disk_name = disk_name
        self.op = op


class MediumError(HardwareError):
    """A latent sector error: the medium under ``lba`` is unreadable.

    Unlike :class:`TransientDiskError` a retry does *not* help — the
    sector stays bad until it is rewritten (drives remap on write).
    The RAID layer reconstructs the data through redundancy and heals
    the sector by writing the reconstruction back.
    """

    def __init__(self, disk_name: str, lba: int):
        super().__init__(f"medium error on disk {disk_name} at lba {lba}")
        self.disk_name = disk_name
        self.lba = lba


class CrashPoint(ReproError):
    """A scheduled simulated host crash fired.

    Raised out of the in-flight device write by the fault-injection
    machinery (see :mod:`repro.faults.crash`).  Carries a snapshot of
    the durable media taken at the instant of the crash, so a test can
    rebuild a fresh device stack from it, remount, and roll forward.
    """

    def __init__(self, message: str, snapshot=None, at_s: float = 0.0):
        super().__init__(message)
        self.snapshot = snapshot
        self.at_s = at_s


class RaidError(ReproError):
    """RAID-layer error (bad geometry, unrecoverable loss, ...)."""


class UnrecoverableArrayError(RaidError):
    """More disks failed than the redundancy scheme can tolerate."""


class FileSystemError(ReproError):
    """Generic file-system error."""


class FileNotFoundFsError(FileSystemError):
    """Path does not exist."""


class FileExistsFsError(FileSystemError):
    """Path already exists."""


class NotADirectoryFsError(FileSystemError):
    """A path component is not a directory."""


class IsADirectoryFsError(FileSystemError):
    """Operation requires a regular file but the path is a directory."""


class DirectoryNotEmptyFsError(FileSystemError):
    """Directory must be empty to be removed."""


class NoSpaceFsError(FileSystemError):
    """The log ran out of clean segments."""


class CorruptFileSystemError(FileSystemError):
    """On-disk structures failed validation during mount or recovery."""


class ConsistencyError(ReproError):
    """A runtime sanitizer (fsck, parity scrub) found an inconsistency.

    Raised by the :mod:`repro.testing` hooks; the message carries the
    full rendered report so a failing test shows every finding.
    """


class NetworkError(ReproError):
    """Network-layer error."""


class ProtocolError(ReproError):
    """Client/server protocol violation."""
