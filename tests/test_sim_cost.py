"""A machine-independent host-cost budget for the event kernel.

Wall-clock gates measure the machine as much as the code.  This one
counts Python frames entered per heap push, which depends only on the
code: every function call and every generator resume enters a frame,
and every scheduling action pushes one heap entry (see
``test_sim_determinism``).  The frames come from ``sys.setprofile``
``call`` events, minus one per push for the counting hook itself.

Each budget is the count measured when resident LFS metadata stopped
being resolved through generators and the dispatch loop stopped
re-checking what a fast path cannot change, plus 5%.  A change that
adds a Python frame to every disk operation or every block the file
system writes, such as a wrapper around a leg, a join that goes back to
one call per constituent, or a generator per pointer lookup, breaks
it.  Interpreters that inline comprehensions (3.12 and later) only
count fewer frames.
"""

from __future__ import annotations

import gc
import heapq
import sys

import pytest

from repro.units import KIB, MIB


def _frames_per_push(run) -> float:
    gc.collect()
    pushes = 0
    frames = 0
    original = heapq.heappush

    def hook(heap, entry):
        nonlocal pushes
        pushes += 1
        return original(heap, entry)

    def profile(_frame, event, _arg):
        nonlocal frames
        if event == "call":
            frames += 1

    heapq.heappush = hook
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        heapq.heappush = original
    return (frames - pushes) / pushes


def _fig5_read():
    from repro.experiments import fig5_hw_throughput as fig5
    return fig5._measure("read", 256 * KIB, 4, 101)


def _fig5_write():
    from repro.experiments import fig5_hw_throughput as fig5
    return fig5._measure("write", 256 * KIB, 4, 202)


def _table2_raid2():
    from repro.experiments import table2_small_io as table2
    return table2._raid2_rate(4, 6, 42)


def _fig8_lfs():
    # Fig. 8's LFS on RAID-II, small: format and fill a 2 MiB file, then
    # random reads and overwrites of two sizes and a sync.
    import random

    from repro.experiments import fig8_lfs_throughput as fig8

    sim, server = fig8._build_server(2)
    fs = server.fs
    rng = random.Random(8)

    def body():
        for size in (16 * KIB, 256 * KIB):
            for _ in range(4):
                offset = rng.randrange(0, (2 * MIB - size) // 4096) * 4096
                yield from fs.read("/big", offset, size)
                yield from fs.write("/big", offset, bytes(size))
        yield from fs.sync()

    sim.run_process(body())
    return sim.now


#: (workload, frames per push measured when the budget was set).
MEASURED = [
    (_fig5_read, 3.07),
    (_fig5_write, 2.68),
    (_table2_raid2, 3.25),
    (_fig8_lfs, 4.65),
]


@pytest.mark.parametrize("run,measured", MEASURED,
                         ids=[run.__name__.lstrip("_") for run, _ in MEASURED])
def test_frames_per_push_within_budget(run, measured):
    run()  # import and warm up outside the count
    frames = _frames_per_push(run)
    budget = measured * 1.05
    assert frames <= budget, (
        f"{frames:.3f} Python frames per heap push; budget {budget:.3f} "
        f"(measured {measured} when the budget was set)")
