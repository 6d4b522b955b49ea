"""Measurement runner: drive request streams and report rates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ReproError
from repro.sim import Simulator
from repro.units import MB

#: An op factory receives (offset, size) and returns a simulation
#: process (generator) performing the operation.
OpFactory = Callable[[int, int], object]


@dataclass(frozen=True)
class Measurement:
    """Result of one workload run."""

    bytes_moved: int
    ops: int
    elapsed_s: float

    @property
    def mb_per_s(self) -> float:
        return self.bytes_moved / MB / self.elapsed_s

    @property
    def ios_per_s(self) -> float:
        return self.ops / self.elapsed_s

    @property
    def mean_latency_s(self) -> float:
        return self.elapsed_s / self.ops


def run_request_stream(sim: Simulator, op_factory: OpFactory,
                       requests: Sequence[tuple[int, int]],
                       concurrency: int = 1) -> Measurement:
    """Run ``requests`` through ``op_factory`` and measure the rate.

    ``concurrency == 1`` issues requests back to back from a single
    process (the paper's single-process experiments); higher values
    deal the stream round-robin to that many worker processes (the
    per-disk-process experiments of Table 2).
    """
    if not requests:
        raise ReproError("empty request stream")
    if concurrency < 1:
        raise ReproError(f"concurrency must be >= 1, got {concurrency}")
    start = sim.now
    total_bytes = sum(size for _offset, size in requests)

    def worker(assigned: Sequence[tuple[int, int]]):
        for offset, size in assigned:
            yield from op_factory(offset, size)

    if concurrency == 1:
        sim.run_process(worker(requests))
    else:
        lanes = [list(requests[lane::concurrency])
                 for lane in range(concurrency)]
        workers = sim.fork([worker(lane) for lane in lanes if lane],
                           [f"worker{i}" for i, lane in enumerate(lanes)
                            if lane])

        def join():
            yield workers

        sim.run_process(join())
    elapsed = sim.now - start
    if elapsed <= 0:
        raise ReproError("workload consumed no simulated time")
    return Measurement(bytes_moved=total_bytes, ops=len(requests),
                       elapsed_s=elapsed)
