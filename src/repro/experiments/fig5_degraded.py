"""Extension experiment: Figure 5's read sweep in degraded mode.

Re-runs the hardware-system-level random-read sweep with a
:class:`~repro.faults.plan.FaultPlan` that kills one disk halfway
through each measurement — RAID-II keeps serving every byte by
reconstructing the dead disk's units through parity, at reduced
bandwidth.  The plan-driven injection (rather than a manual ``fail()``)
exercises the same machinery the fault-matrix tests replay.
"""

from __future__ import annotations

import random

from repro.analysis.scrub_raid import scrub_array
from repro.experiments.base import ExperimentResult, Series
from repro.faults import DiskDeath, FaultPlan, attach_server
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MIB
from repro.workloads import random_aligned_offsets, run_request_stream

FULL_SIZES_KIB = [128, 256, 512, 1024, 1600]
QUICK_SIZES_KIB = [256, 1024]

#: Bytes of real data laid down before measuring, so the post-run
#: repair + rebuild + parity scrub exercises nonzero content.
SEED_BYTES = 2 * MIB
#: Disk (in striping order) the plan kills.
VICTIM = 7


def _run(size: int, count: int, seed: int, plan_for=None):
    """One fresh-server measurement; returns (server, measurement).

    ``plan_for`` maps the freshly built server to a
    :class:`FaultPlan` (plans name disks, and the names live on the
    server's topology).
    """
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.paper_default())
    if plan_for is not None:
        attach_server(plan_for(server), server)
    pattern = bytes(range(256)) * (SEED_BYTES // 256)
    sim.run_process(server.raid.write(0, pattern))
    rng = random.Random(seed)
    requests = random_aligned_offsets(
        rng, server.raid.capacity_bytes, size, count, alignment=512)

    def op(offset, nbytes):
        yield from server.hw_read(offset, nbytes)

    return server, run_request_stream(sim, op, requests)


def run(quick: bool = False) -> ExperimentResult:
    sizes = QUICK_SIZES_KIB if quick else FULL_SIZES_KIB
    count = 5 if quick else 10
    rebuild_rows = 32

    healthy = Series("healthy reads", "request KB", "MB/s")
    degraded = Series("degraded reads (1 disk dead)", "request KB", "MB/s")
    degraded_reads_total = 0
    last_server = None
    for size_kib in sizes:
        _, clean = _run(size_kib * KIB, count, seed=11)
        healthy.add(size_kib, clean.mb_per_s)
        # Kill one disk halfway through the healthy run's duration:
        # early requests run clean, later ones reconstruct.
        server, hurt = _run(
            size_kib * KIB, count, seed=11,
            plan_for=lambda s: FaultPlan.of(DiskDeath(
                disk=s.raid.paths[VICTIM].disk.name,
                at_s=clean.elapsed_s / 2)))
        degraded.add(size_kib, hurt.mb_per_s)
        degraded_reads_total += server.raid.degraded_reads
        last_server = server

    # Close the loop on the last (degraded) server: replace the dead
    # disk, rebuild the seeded region, and scrub its parity.
    raid = last_server.raid
    raid.paths[VICTIM].disk.repair()
    last_server.sim.run_process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    scrub = scrub_array(raid, max_rows=rebuild_rows)
    parity_clean = scrub.ok and scrub.rows_checked == rebuild_rows

    last = sizes[-1]
    return ExperimentResult(
        experiment_id="fig5-degraded",
        title="Figure 5 read sweep, healthy vs degraded (fault plan)",
        series=[healthy, degraded],
        scalars={
            "healthy_plateau_mb_s": healthy.y_at(last),
            "degraded_plateau_mb_s": degraded.y_at(last),
            "degraded_fraction": degraded.y_at(last) / healthy.y_at(last),
            "degraded_reads_total": float(degraded_reads_total),
            "parity_clean_after_rebuild": 1.0 if parity_clean else 0.0,
        },
        paper={},
        notes=[
            "A FaultPlan kills one disk mid-measurement; all reads "
            "still complete via parity reconstruction.",
            "After the sweep the dead disk is replaced, rebuilt over "
            "the seeded region, and its parity scrubbed clean.",
        ],
    )
