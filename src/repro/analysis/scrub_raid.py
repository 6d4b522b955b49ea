"""RAID parity scrubber.

Production arrays scrub: they periodically read every stripe, recompute
the redundancy, and compare it with what is on disk, so that latent
errors are found while the redundancy to fix them still exists.  This
module brings that operation to the simulated arrays:

* :func:`scrub_array` — the *instant* form (``peek``-based, no
  simulated time): walks every row of a mounted controller, recomputes
  the XOR (RAID 5/3) or compares the mirror copies (RAID 1), and
  reports mismatched rows.  Rows with an unavailable disk (failed, or
  a replacement whose rebuild frontier has not reached the row) are
  counted as *degraded* and skipped — in degraded mode the redundancy
  IS the data, so there is nothing independent left to compare.  This
  is the one parity check of the code base.
* :func:`scrub_process` — the timed form: a simulation process doing
  the same walk through the disk paths, usable inside experiments as a
  background scrubber.
* :func:`scrub_images` — the offline form used by the CLI: per-disk
  raw image files laid out by :class:`repro.raid.layout.Raid5Layout`.

``repair=True`` rewrites the redundancy of a mismatched row from the
data units (``poke``, instant), mirroring what a real scrubber does
once a latent parity error is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import DiskFailedError, RaidError
from repro.hw.parity import xor_blocks
from repro.raid.layout import Raid1Layout, Raid3Layout, Raid5Layout
from repro.units import KIB


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over an array."""

    rows_checked: int = 0
    mismatched_rows: list[int] = field(default_factory=list)
    degraded_rows: list[int] = field(default_factory=list)
    repaired_rows: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatched_rows

    def render(self) -> str:
        lines = [
            f"scrub: {self.rows_checked} rows checked, "
            f"{len(self.mismatched_rows)} mismatched, "
            f"{len(self.degraded_rows)} degraded (skipped), "
            f"{len(self.repaired_rows)} repaired"
        ]
        for row in self.mismatched_rows:
            lines.append(f"SCRUB-PARITY: row {row} redundancy mismatch")
        return "\n".join(lines)


#: Bytes per disk one peek of the instant parity scrub covers.
_SCRUB_CHUNK_BYTES = 256 * KIB


def _rows_to_scan(layout, max_rows: Optional[int]) -> int:
    return layout.rows if max_rows is None else min(layout.rows, max_rows)


def _row_members(layout, row: int) -> tuple[list[int], Optional[int]]:
    """(data disks in unit order, parity disk or None) for one row."""
    data = [layout.data_disk(row, k)
            for k in range(layout.data_units_per_row)]
    return data, layout.parity_disk(row)


def scrub_array(controller, max_rows: Optional[int] = None,
                repair: bool = False) -> ScrubReport:
    """Instantly scrub a mounted RAID controller's redundancy.

    Dispatches on the controller's layout: XOR parity for RAID 5/3,
    copy comparison for RAID 1.  RAID 0 has no redundancy to scrub and
    is rejected.
    """
    layout = controller.layout
    if isinstance(layout, (Raid5Layout, Raid3Layout)):
        return _scrub_parity(controller, layout, max_rows, repair)
    if isinstance(layout, Raid1Layout):
        return _scrub_mirror(controller, layout, max_rows, repair)
    raise RaidError(
        f"{controller.name}: layout {type(layout).__name__} has no "
        "redundancy to scrub")


def _scrub_parity(controller, layout, max_rows: Optional[int],
                  repair: bool) -> ScrubReport:
    report = ScrubReport()
    nsectors = layout.unit_sectors
    unit = layout.stripe_unit_bytes
    disks = [path.disk for path in controller.paths]
    nrows = _rows_to_scan(layout, max_rows)
    chunk = max(1, _SCRUB_CHUNK_BYTES // unit)
    for first in range(0, nrows, chunk):
        count = min(chunk, nrows - first)
        lba = layout.row_lba(first)
        # Every disk holds one unit of every row, data or parity, so
        # the XOR of all of a row's units is zero exactly when its
        # parity matches its data.
        acc = np.frombuffer(disks[0].peek(lba, count * nsectors),
                            dtype=np.uint8).copy()
        for disk in disks[1:]:
            acc ^= np.frombuffer(disk.peek(lba, count * nsectors),
                                 dtype=np.uint8)
        dirty = acc.reshape(count, unit).any(axis=1)
        # A disk is unavailable from some row on (its rebuild frontier,
        # or row 0), so rows need checking one by one only when some
        # disk cannot serve the run's last row.
        suspect = any(controller.unavailable(d, first + count - 1)
                      for d in range(len(disks)))
        for row in range(first, first + count):
            if suspect and any(controller.unavailable(d, row)
                               for d in range(len(disks))):
                report.degraded_rows.append(row)
                continue
            report.rows_checked += 1
            if dirty[row - first]:
                report.mismatched_rows.append(row)
                if repair:
                    data_disks, parity_disk = _row_members(layout, row)
                    row_lba = layout.row_lba(row)
                    disks[parity_disk].poke(row_lba, xor_blocks(
                        [disks[d].peek(row_lba, nsectors)
                         for d in data_disks]))
                    report.repaired_rows.append(row)
    return report


def _scrub_mirror(controller, layout: Raid1Layout, max_rows: Optional[int],
                  repair: bool) -> ScrubReport:
    report = ScrubReport()
    nsectors = layout.unit_sectors
    for row in range(_rows_to_scan(layout, max_rows)):
        lba = layout.row_lba(row)
        row_clean = True
        row_degraded = False
        for primary in range(layout.data_units_per_row):
            mirror = layout.mirror_of(primary)
            if controller.unavailable(primary, row) \
                    or controller.unavailable(mirror, row):
                row_degraded = True
                continue
            first = controller.paths[primary].disk.peek(lba, nsectors)
            second = controller.paths[mirror].disk.peek(lba, nsectors)
            if first != second:
                row_clean = False
                if repair:
                    controller.paths[mirror].disk.poke(lba, first)
        if row_degraded:
            report.degraded_rows.append(row)
            continue
        report.rows_checked += 1
        if not row_clean:
            report.mismatched_rows.append(row)
            if repair:
                report.repaired_rows.append(row)
    return report


def scrub_process(controller, max_rows: Optional[int] = None):
    """Process: timed scrub through the disk paths.

    The same walk as :func:`scrub_array` but paying simulated I/O time,
    so experiments can run it as a background scrubber and measure its
    interference with foreground traffic.  Only parity layouts (RAID
    5/3) are supported; a disk failing mid-scan degrades the affected
    rows rather than aborting the pass.
    """
    layout = controller.layout
    if not isinstance(layout, (Raid5Layout, Raid3Layout)):
        raise RaidError(
            f"{controller.name}: timed scrub supports parity layouts only")
    report = ScrubReport()
    nsectors = layout.unit_sectors
    for row in range(_rows_to_scan(layout, max_rows)):
        data_disks, parity_disk = _row_members(layout, row)
        lba = layout.row_lba(row)
        involved = data_disks + [parity_disk]
        if any(controller.unavailable(d, row) for d in involved):
            report.degraded_rows.append(row)
            continue
        try:
            blocks = []
            for disk in involved:
                block = yield from controller.paths[disk].read(lba, nsectors)
                blocks.append(block)
        except DiskFailedError:
            report.degraded_rows.append(row)
            continue
        report.rows_checked += 1
        # XOR over data plus parity is zero when the row is clean.
        if any(xor_blocks(blocks)):
            report.mismatched_rows.append(row)
    return report


def scrub_images(images: list[bytes], stripe_unit_bytes: int) -> ScrubReport:
    """Offline scrub of per-disk raw images (RAID 5 left-symmetric).

    ``images`` holds one byte string per disk, in disk order; rows are
    checked up to the smallest image.  This is what
    ``python -m repro.analysis scrub`` runs on image files.
    """
    if len(images) < 3:
        raise RaidError(
            f"RAID 5 scrub needs >= 3 images, got {len(images)}")
    capacity = min(len(image) for image in images)
    layout = Raid5Layout(len(images), stripe_unit_bytes, capacity)
    unit = layout.stripe_unit_bytes
    report = ScrubReport()
    for row in range(layout.rows):
        data_disks, parity_disk = _row_members(layout, row)
        at = row * unit
        data_blocks = [images[d][at:at + unit] for d in data_disks]
        parity = images[parity_disk][at:at + unit]
        report.rows_checked += 1
        if xor_blocks(data_blocks) != parity:
            report.mismatched_rows.append(row)
    return report
