"""The optimized kernel must stay deterministic: identical workloads on
fresh Simulators must schedule the identical sequence of heap entries.

The trace is captured by hooking ``heapq.heappush``: the kernel pushes
every heap entry inline (timeouts, triggered events, process starts and
finishes), and looks the function up at each call, so that chokepoint
sees every scheduling action.  Each trace record is a
``(time, kind, event-type, component)`` tuple.
"""

from __future__ import annotations

import gc
import hashlib
import heapq

import pytest

from repro.units import KIB, MIB


def _traced(run):
    """Run ``run()`` with every heap push recorded; returns
    (result, [(time, kind, event_type, component), ...])."""
    # The hook is a global chokepoint: abandoned generators from other
    # tests push cleanup wakeups into their own (dead) sims' heaps when
    # the GC finalizes them, polluting the trace.  Flush them first.
    gc.collect()
    trace: list[tuple] = []
    original = heapq.heappush

    def hook(heap, entry):
        when, _seq, kind, obj = entry
        trace.append((when, kind, type(obj).__name__,
                      getattr(obj, "name", None)))
        return original(heap, entry)

    heapq.heappush = hook
    try:
        result = run()
    finally:
        heapq.heappush = original
    return result, trace


def _assert_identical_twice(run):
    result_a, trace_a = _traced(run)
    result_b, trace_b = _traced(run)
    assert result_a == result_b
    assert len(trace_a) == len(trace_b)
    assert trace_a == trace_b


def _fig5_read():
    from repro.experiments import fig5_hw_throughput as fig5
    return fig5._measure("read", 256 * KIB, 4, 101)


def _fig5_write():
    from repro.experiments import fig5_hw_throughput as fig5
    return fig5._measure("write", 256 * KIB, 4, 202)


def _table2_raid2():
    from repro.experiments import table2_small_io as table2
    return table2._raid2_rate(4, 6, 42)


def _lfs_vs_ffs():
    # The FFS leg places every block through the first-free allocator,
    # so a placement change moves the RAID-5 seek times in the trace.
    from repro.experiments import ablations
    return ablations.run_lfs_vs_ffs(quick=True).scalars


def _lfs_read_clean():
    # Cold-mount reads through the single-indirect block (sequential,
    # so read-ahead fills and drains the prefetch buffers), a rewrite
    # that leaves dead blocks behind, and one cleaner pass on another
    # cold mount: every resident-metadata lookup and every miss of the
    # LFS request path and the cleaner.
    import dataclasses
    import random

    from repro.experiments.ablations import NO_OVERHEAD_SPEC, _make_raid5
    from repro.lfs import LogStructuredFS
    from repro.sim import Simulator

    spec = dataclasses.replace(NO_OVERHEAD_SPEC, segment_bytes=128 * KIB,
                               readahead_blocks=8)
    sim = Simulator()
    _paths, raid = _make_raid5(sim, ndisks=5, disk_bytes=4 * MIB)
    rng = random.Random(31)
    content = bytearray(rng.randbytes(256 * KIB))

    def mounted():
        fs = LogStructuredFS(sim, raid, spec=spec, max_inodes=64)
        sim.run_process(fs.mount())
        return fs

    fs = LogStructuredFS(sim, raid, spec=spec, max_inodes=64)
    sim.run_process(fs.format())
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, bytes(content)))
    sim.run_process(fs.unmount())

    fs = mounted()
    reads = [sim.run_process(fs.read("/f", 64 * KIB + index * 16 * KIB,
                                     16 * KIB))
             for index in range(8)]
    reads.append(sim.run_process(fs.read("/f", 200 * KIB + 100, 5000)))
    hits = fs.readahead_hits
    patch = rng.randbytes(96 * KIB)
    content[40 * KIB:136 * KIB] = patch
    sim.run_process(fs.write("/f", 40 * KIB, patch))
    sim.run_process(fs.unmount())

    fs = mounted()
    victims = sim.run_process(fs.clean(max_segments=1))
    whole = sim.run_process(fs.read("/f", 0, len(content)))
    assert whole == content
    return (sim.now, victims, hits,
            hashlib.sha256(b"".join(reads)).hexdigest()[:16])


#: Fingerprints recorded before the dispatch loop was collapsed into
#: one (the FFS entry before the allocator kept a low-water mark; the
#: LFS read-and-clean entry before resident metadata stopped being
#: resolved through generators):
#: (workload, first 16 hex digits of sha256(repr((result, trace))),
#: heap pushes).  A kernel change that reorders, adds or drops a single
#: scheduling action, or moves a result by one ULP, changes the digest.
GOLDEN = [
    (_fig5_read, "d864e62bc1f00a46", 649),
    (_fig5_write, "edae6338a4ffee94", 1254),
    (_table2_raid2, "0bdb5caade322875", 632),
    (_lfs_vs_ffs, "228f035d153a6b4a", 5551),
    (_lfs_read_clean, "6535ca6e45eaaaa0", 1019),
]


@pytest.mark.parametrize("run,digest,pushes", GOLDEN,
                         ids=[run.__name__.lstrip("_") for run, *_ in GOLDEN])
def test_fingerprint_matches_recorded_digest(run, digest, pushes):
    result, trace = _traced(run)
    assert len(trace) == pushes
    assert hashlib.sha256(
        repr((result, trace)).encode()).hexdigest()[:16] == digest


def test_fig5_trace_identical_across_fresh_simulators():
    from repro.experiments import fig5_hw_throughput as fig5

    _assert_identical_twice(lambda: fig5._measure("read", 256 * KIB, 4, 101))
    _assert_identical_twice(lambda: fig5._measure("write", 256 * KIB, 4, 202))


def test_table2_trace_identical_across_fresh_simulators():
    from repro.experiments import table2_small_io as table2

    _assert_identical_twice(lambda: table2._raid2_rate(4, 6, 42))


def test_tracing_leaves_fingerprint_bit_identical():
    # Observation must never schedule: the heappush fingerprint of a
    # traced run (spans + metrics active) is bit-identical to the
    # plain run's, down to event kinds, times and process names.
    from repro.experiments import fig5_hw_throughput as fig5
    from repro.obs import observe

    def plain():
        return fig5._measure("read", 256 * KIB, 4, 101)

    def traced():
        with observe(trace=True):
            return fig5._measure("read", 256 * KIB, 4, 101)

    result_plain, trace_plain = _traced(plain)
    result_traced, trace_traced = _traced(traced)
    assert result_traced == result_plain
    assert trace_traced == trace_plain


def test_trace_captures_every_scheduling_kind():
    # Sanity-check the harness itself: a workload with timeouts and
    # process starts must show both entry kinds, with process names
    # attached where a component exists.
    from repro.sim import Simulator

    def run():
        sim = Simulator()

        def sleeper():
            yield sim.timeout(3.0)
            return sim.now

        def waiter(target):
            value = yield target
            return value

        proc = sim.process(sleeper(), name="sleeper")
        sim.process(waiter(proc), name="waiter")
        sim.run()
        return proc.value

    result, trace = _traced(run)
    assert result == 3.0
    kinds = {entry[1] for entry in trace}
    assert kinds == {0, 1}
    names = {entry[3] for entry in trace if entry[3] is not None}
    assert {"sleeper", "waiter"} <= names
    _assert_identical_twice(run)


def test_empty_fault_plan_leaves_fingerprint_bit_identical():
    # Arming an empty FaultPlan installs the pull hooks on every disk,
    # string and port — but the injector never schedules, so the
    # heappush fingerprint must be bit-identical to an unarmed run.
    import random

    from repro.faults import FaultPlan, attach_server
    from repro.server import Raid2Config, Raid2Server
    from repro.sim import Simulator
    from repro.workloads import random_aligned_offsets, run_request_stream

    def measure(armed: bool):
        sim = Simulator()
        server = Raid2Server(sim, Raid2Config.paper_default())
        if armed:
            attach_server(FaultPlan(), server)
        rng = random.Random(7)
        requests = random_aligned_offsets(
            rng, server.raid.capacity_bytes, 256 * KIB, 4, alignment=512)

        def op(offset, nbytes):
            yield from server.hw_read(offset, nbytes)

        return run_request_stream(sim, op, requests).mb_per_s

    result_plain, trace_plain = _traced(lambda: measure(False))
    result_armed, trace_armed = _traced(lambda: measure(True))
    assert result_armed == result_plain
    assert trace_armed == trace_plain
