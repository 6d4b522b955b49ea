#!/usr/bin/env python3
"""Quickstart: build the RAID-II prototype, store a file, read it back.

Runs the full simulated stack — 24 IBM 0661 drives on SCSI strings
behind Cougar controllers, the XBUS crossbar board with its parity
engine and HIPPI ports, RAID 5, and the Log-Structured File System —
and reports the simulated time and bandwidth of each step.
"""

import random

from repro.analysis import scrub_array
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import MB, MIB


def main() -> None:
    sim = Simulator()
    # The paper's LFS configuration: 16 disks, so a 960 KB segment is
    # exactly one stripe row and every segment flush is a full-stripe
    # write (Section 3.4).
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    print("RAID-II prototype up:")
    print(f"  disks        : {len(server.raid.paths)}")
    print(f"  array size   : {server.raid.capacity_bytes / MB:.0f} MB "
          f"(RAID 5, one parity group)")
    print(f"  stripe unit  : {server.raid.stripe_unit_bytes // 1024} KiB")

    sim.run_process(server.setup_lfs())
    print(f"  file system  : LFS, "
          f"{server.fs.sb.segment_blocks * 4096 // 1024} KiB segments, "
          f"{server.fs.sb.nsegments} segments")

    payload = random.Random(7).randbytes(8 * MIB)

    start = sim.now
    sim.run_process(server.fs.create("/demo/data".replace("/demo", "")))
    sim.run_process(server.fs.write("/data", 0, payload))
    sim.run_process(server.fs.sync())
    write_elapsed = sim.now - start
    print(f"\nwrote {len(payload) / MB:.1f} MB in {write_elapsed * 1000:.1f} "
          f"simulated ms -> {len(payload) / MB / write_elapsed:.1f} MB/s")

    start = sim.now
    data = sim.run_process(server.fs.read("/data", 0, len(payload)))
    read_elapsed = sim.now - start
    print(f"read  {len(data) / MB:.1f} MB in {read_elapsed * 1000:.1f} "
          f"simulated ms -> {len(data) / MB / read_elapsed:.1f} MB/s")

    assert data == payload, "read-back mismatch!"
    print("read-back verified byte-for-byte")

    report = scrub_array(server.raid, max_rows=16)
    assert report.ok and report.rows_checked == 16
    print("RAID-5 parity verified across the written rows")

    stats = server.fs.statfs()
    print(f"\nlog state: {stats['clean_segments']}/{stats['segments']} "
          f"segments clean, {stats['live_bytes'] / MB:.1f} MB live, "
          f"{stats['fragments_flushed']} fragments flushed")


if __name__ == "__main__":
    main()
