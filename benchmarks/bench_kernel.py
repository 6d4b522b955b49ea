"""Wall-clock microbenchmarks for the simulation kernel and data path.

Unlike the ``bench_fig*`` modules — which measure *simulated* time —
everything here measures *host* wall-clock time: how fast the Python
event loop dispatches events, churns timeouts, moves transfers through
a :class:`BandwidthChannel`, and XORs parity blocks.  These are the
costs that bound how long the whole reproduction takes to run
(ROADMAP: "as fast as the hardware allows"), so they get their own
regression harness: ``benchmarks/record.py`` runs this suite and
writes ``BENCH_kernel.json``, and CI fails if the event-dispatch rate
regresses more than 30% against the committed numbers.

Every benchmark is deterministic in *simulated* behaviour (fixed
seeds, fixed workloads); only the wall-clock readings vary from host
to host.
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.hw.parity import xor_blocks
from repro.sim import BandwidthChannel, Simulator
from repro.units import KIB, MB

#: (full, quick) sizing knobs per benchmark.
_EVENTS = (300_000, 30_000)
_CHURN = (150_000, 15_000)
_TRANSFERS = (40_000, 4_000)
_PARITY_ROUNDS = (300, 30)

#: Each microbenchmark reports its best of this many runs: host
#: scheduling noise only ever makes a run slower, so the minimum is
#: the most repeatable estimate of the kernel's true cost.
_REPEATS = 3


def _best_of(bench, repeats: int = _REPEATS) -> dict:
    """Run ``bench()`` ``repeats`` times; keep the fastest result."""
    best = None
    for _ in range(repeats):
        result = bench()
        if best is None or result["seconds"] < best["seconds"]:
            best = result
    return best


def bench_event_dispatch(quick: bool = False) -> dict:
    """Timeouts fired per wall-clock second with a deep event queue.

    One hundred concurrent processes each sleep in a loop with slightly
    different periods, so the heap always holds ~100 pending events and
    every dispatch pays realistic heap traffic.
    """
    total = _EVENTS[quick]
    sim = Simulator()
    nprocs = 100
    per_proc = total // nprocs

    def worker(period: float):
        for _ in range(per_proc):
            yield sim.timeout(period)

    for index in range(nprocs):
        sim.process(worker(0.001 + index * 1e-6))
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    events = nprocs * per_proc
    return {"events": events, "seconds": elapsed,
            "events_per_s": events / elapsed}


def bench_timeout_churn(quick: bool = False) -> dict:
    """Cost of one allocate-schedule-fire-resume timeout cycle.

    A single process yielding back-to-back timeouts: the queue is
    nearly empty, so this isolates per-timeout allocation and process
    switch overhead from heap depth.
    """
    total = _CHURN[quick]
    sim = Simulator()

    def body():
        for _ in range(total):
            yield sim.timeout(0.1)

    sim.process(body())
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    return {"timeouts": total, "seconds": elapsed,
            "timeouts_per_s": total / elapsed}


def bench_channel_transfer(quick: bool = False) -> dict:
    """Block transfers per wall-clock second through one shared channel.

    Eight competing processes move 64 KiB blocks across a single
    :class:`BandwidthChannel` — the acquire/timeout/release cycle every
    simulated bus, port, and disk in the repro runs per block.
    """
    total = _TRANSFERS[quick]
    workers = 8
    per_worker = total // workers
    sim = Simulator()
    channel = BandwidthChannel(sim, rate_mb_s=40.0, name="bench")

    def worker():
        for _ in range(per_worker):
            yield from channel.transfer(64 * KIB)

    for _ in range(workers):
        sim.process(worker())
    start = perf_counter()
    sim.run()
    elapsed = perf_counter() - start
    transfers = workers * per_worker
    return {"transfers": transfers, "seconds": elapsed,
            "transfers_per_s": transfers / elapsed}


def bench_parity_throughput(quick: bool = False) -> dict:
    """XOR megabytes per wall-clock second over a paper-shaped stripe.

    Twelve 64 KiB blocks — one RAID-5 row of the Figure 5 configuration
    — XORed repeatedly, the pure-compute half of every parity-engine
    call, full-stripe write, and reconstruction.
    """
    rounds = _PARITY_ROUNDS[quick]
    rng = random.Random(7)
    block = 64 * KIB
    blocks = [rng.randbytes(block) for _ in range(12)]
    parity = xor_blocks(blocks)  # warm numpy up outside the window
    start = perf_counter()
    for _ in range(rounds):
        parity = xor_blocks(blocks)
    elapsed = perf_counter() - start
    moved = rounds * len(blocks) * block
    assert len(parity) == block
    return {"bytes": moved, "seconds": elapsed,
            "mb_per_s": moved / MB / elapsed}


def bench_experiment_wallclock(experiment: str = "fig5") -> dict:
    """Wall-clock seconds for one full quick-mode experiment run."""
    if experiment == "fig5":
        from repro.experiments import fig5_hw_throughput as module
    elif experiment == "fig8":
        from repro.experiments import fig8_lfs_throughput as module
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    start = perf_counter()
    result = module.run(quick=True)
    elapsed = perf_counter() - start
    return {"experiment": experiment, "seconds": elapsed,
            "scalars": dict(result.scalars)}


def run_suite(quick: bool = False, experiments: bool = True) -> dict:
    """Run every kernel benchmark (best of ``_REPEATS`` runs each);
    returns {name: result dict}."""
    results = {
        "event_dispatch": _best_of(lambda: bench_event_dispatch(quick)),
        "timeout_churn": _best_of(lambda: bench_timeout_churn(quick)),
        "channel_transfer": _best_of(lambda: bench_channel_transfer(quick)),
        "parity_throughput": _best_of(lambda: bench_parity_throughput(quick)),
    }
    if experiments:
        results["fig5_quick_wallclock"] = _best_of(
            lambda: bench_experiment_wallclock("fig5"))
        results["fig8_quick_wallclock"] = _best_of(
            lambda: bench_experiment_wallclock("fig8"))
    return results


# ----------------------------------------------------------------------
# pytest entry points (collected with the rest of benchmarks/)
# ----------------------------------------------------------------------

def test_kernel_microbenchmarks(capsys):
    results = run_suite(quick=True, experiments=False)
    with capsys.disabled():
        print()
        for name, result in results.items():
            rate_key = next(k for k in result if k.endswith("_per_s"))
            print(f"  {name:<18} : {result[rate_key]:12.2f} {rate_key}")
    assert results["event_dispatch"]["events_per_s"] > 0
    assert results["timeout_churn"]["timeouts_per_s"] > 0
    assert results["channel_transfer"]["transfers_per_s"] > 0
    assert results["parity_throughput"]["mb_per_s"] > 0
