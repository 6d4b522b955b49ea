#!/usr/bin/env python3
"""Failure injection tour: degraded reads, rebuild, crash recovery.

Exercises the redundancy machinery end to end on the real byte store:

1. a disk dies mid-workload — reads keep returning correct data,
   reconstructed through parity;
2. the disk is replaced and rebuilt byte-for-byte from its peers;
3. the server loses power with unflushed state — remounting rolls the
   log forward from the last checkpoint and recovers every synced byte
   (and only loses what was never flushed, as it should).
"""

import random

from repro.analysis import scrub_array
from repro.lfs import LogStructuredFS
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MB, MIB


def main() -> None:
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    fs = server.fs
    rng = random.Random(99)

    dataset = rng.randbytes(4 * MIB)
    sim.run_process(fs.create("/archive"))
    sim.run_process(fs.write("/archive", 0, dataset))
    sim.run_process(fs.checkpoint())
    print(f"stored {len(dataset) / MB:.1f} MB and checkpointed")

    # ---- 1. disk failure: degraded operation ----
    victim = server.raid.paths[5].disk
    victim.fail()
    print(f"\nfailed {victim.name} — array now degraded")

    start = sim.now
    data = sim.run_process(fs.read("/archive", 0, len(dataset)))
    elapsed = sim.now - start
    assert data == dataset
    print(f"degraded read of the full file: correct, "
          f"{len(dataset) / MB / elapsed:.1f} MB/s "
          f"({server.raid.degraded_reads} reconstructions through parity)")

    # Writes still work while degraded.
    update = rng.randbytes(256 * KIB)
    sim.run_process(fs.write("/archive", 1 * MIB, update))
    sim.run_process(fs.sync())
    print("degraded write applied and synced")

    # ---- 2. replace and rebuild ----
    victim.repair()  # blank replacement drive
    start = sim.now
    sim.run_process(server.raid.rebuild(5, max_rows=64))
    print(f"\nrebuilt replacement disk from peers in "
          f"{sim.now - start:.2f} s simulated")
    report = scrub_array(server.raid, max_rows=64)
    assert report.ok and report.rows_checked == 64
    print("parity verified across rebuilt rows")

    expected = bytearray(dataset)
    expected[1 * MIB:1 * MIB + len(update)] = update
    data = sim.run_process(fs.read("/archive", 0, len(dataset)))
    assert data == bytes(expected)
    print("full read-back after rebuild: byte-for-byte correct")

    # ---- 3. power failure and roll-forward ----
    sim.run_process(fs.write("/archive", 2 * MIB, b"\x42" * (64 * KIB)))
    sim.run_process(fs.sync())          # this write is durable
    sim.run_process(fs.write("/archive", 3 * MIB, b"\x43" * (64 * KIB)))
    # ... and this one is still buffered when the power dies:
    fs.crash()
    print("\npower failure with one synced and one unsynced write")

    fs2 = LogStructuredFS(sim, server.raid, spec=server.config.lfs,
                          max_inodes=server.config.max_inodes,
                          host=server.host)
    start = sim.now
    sim.run_process(fs2.mount())
    print(f"remounted in {(sim.now - start) * 1000:.1f} ms simulated "
          "(checkpoint + roll-forward, no full-disk fsck)")

    synced = sim.run_process(fs2.read("/archive", 2 * MIB, 64 * KIB))
    unsynced = sim.run_process(fs2.read("/archive", 3 * MIB, 64 * KIB))
    assert synced == b"\x42" * (64 * KIB), "synced write must survive"
    assert unsynced != b"\x43" * (64 * KIB), "unsynced write must be lost"
    print("synced write survived; unsynced write correctly lost")


if __name__ == "__main__":
    main()
