"""Extension experiment: rebuild bandwidth with and without load.

After a disk replacement the array must reconstruct its contents while
continuing to serve clients.  This measures the tension from both
sides on a small-disk server: the rebuild's own data rate idle vs with
a concurrent client read stream, and the client stream healthy vs
while the rebuild runs.
"""

from __future__ import annotations

import dataclasses
import random

from repro.analysis.scrub_raid import scrub_array
from repro.experiments.base import ExperimentResult
from repro.hw.specs import IBM_0661
from repro.server import Raid2Config, Raid2Server
from repro.sim import Simulator
from repro.units import KIB, MB, MIB
from repro.workloads import random_aligned_offsets, run_request_stream

#: Shrunken disks so a full-depth rebuild stays cheap.
SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=16 * MIB)
SEED_BYTES = 2 * MIB
REQUEST = 256 * KIB
VICTIM = 7


def _client_reads(server, sim, count, seed):
    rng = random.Random(seed)
    requests = random_aligned_offsets(rng, SEED_BYTES, REQUEST, count,
                                      alignment=512)

    def op(offset, nbytes):
        yield from server.hw_read(offset, nbytes)

    return run_request_stream(sim, op, requests)


def run(quick: bool = False) -> ExperimentResult:
    count = 6 if quick else 16
    rebuild_rows = 48 if quick else 256
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.paper_default(
        disk_spec=SMALL_DISK))
    raid = server.raid
    pattern = bytes(range(256)) * (SEED_BYTES // 256)
    sim.run_process(raid.write(0, pattern))

    healthy = _client_reads(server, sim, count, seed=21).mb_per_s

    # Round 1: rebuild with no competing traffic.
    raid.paths[VICTIM].disk.fail()
    raid.paths[VICTIM].disk.repair()
    start = sim.now
    sim.run_process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    idle_elapsed = sim.now - start
    rebuilt_bytes = rebuild_rows * raid.stripe_unit_bytes

    # Round 2: same rebuild racing a client read stream.
    raid.paths[VICTIM].disk.fail()
    raid.paths[VICTIM].disk.repair()
    start = sim.now
    rebuild_proc = sim.process(raid.rebuild(VICTIM, max_rows=rebuild_rows))
    during = _client_reads(server, sim, count, seed=22).mb_per_s
    sim.run()  # let the rebuild drain
    assert rebuild_proc.processed
    loaded_elapsed = sim.now - start

    scrub = scrub_array(raid, max_rows=rebuild_rows)
    parity_clean = scrub.ok and scrub.rows_checked == rebuild_rows
    idle_rate = rebuilt_bytes / MB / idle_elapsed
    loaded_rate = rebuilt_bytes / MB / loaded_elapsed
    return ExperimentResult(
        experiment_id="rebuild-under-load",
        title="Rebuild data rate vs concurrent client bandwidth",
        scalars={
            "rebuild_idle_mb_s": idle_rate,
            "rebuild_under_load_mb_s": loaded_rate,
            "client_healthy_mb_s": healthy,
            "client_during_rebuild_mb_s": during,
            "rebuild_slowdown_fraction": loaded_rate / idle_rate,
            "client_slowdown_fraction": during / healthy,
            "parity_clean_after_rebuild": 1.0 if parity_clean else 0.0,
        },
        paper={},
        notes=[
            "Per-row locks let client reads interleave with the "
            "rebuild frontier; reads past it reconstruct via parity.",
            "The loaded rebuild elapsed time includes the tail after "
            "the client stream finishes.",
        ],
    )
