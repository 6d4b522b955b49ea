"""Tests for LFS sequential read-ahead (Section 3.2 prefetch buffers)."""

import dataclasses
import random

from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

RA_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                              fs_overhead_s=0.0, small_write_overhead_s=0.0,
                              readahead_blocks=16)
NO_RA_SPEC = dataclasses.replace(RA_SPEC, readahead_blocks=0)


def make_fs(spec):
    sim = Simulator()
    device = MemoryDevice(sim, 16 * MIB, rate_mb_s=10.0,
                          per_op_latency_s=0.02)
    fs = LogStructuredFS(sim, device, spec=spec, max_inodes=64)
    sim.run_process(fs.format())
    return sim, device, fs


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


def prime(sim, fs, nbytes=512 * KIB, seed=1):
    payload = pattern(nbytes, seed)
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, payload))
    sim.run_process(fs.sync())
    # Cold caches: drop anything the write path left behind.
    fs._readahead.clear()
    fs._next_expected.clear()
    return payload


def sequential_read_time(spec, request=8 * KIB, count=24):
    sim, _device, fs = make_fs(spec)
    payload = prime(sim, fs)
    start = sim.now

    def body():
        for index in range(count):
            yield from fs.read("/f", index * request, request)

    sim.run_process(body())
    checks = sim.run_process(fs.read("/f", 0, count * request))
    assert checks == payload[:count * request]
    return sim.now - start, fs


def test_sequential_small_reads_faster_with_readahead():
    with_ra, fs_ra = sequential_read_time(RA_SPEC)
    without_ra, _fs = sequential_read_time(NO_RA_SPEC)
    assert fs_ra.readahead_hits > 0
    assert with_ra < 0.6 * without_ra


def test_readahead_returns_correct_bytes():
    sim, _device, fs = make_fs(RA_SPEC)
    payload = prime(sim, fs)

    def body():
        out = []
        for index in range(32):
            data = yield from fs.read("/f", index * 8 * KIB, 8 * KIB)
            out.append(data)
        return b"".join(out)

    assert sim.run_process(body()) == payload[:32 * 8 * KIB]


def test_random_reads_do_not_trigger_readahead():
    sim, _device, fs = make_fs(RA_SPEC)
    prime(sim, fs)
    rng = random.Random(5)

    def body():
        for _ in range(10):
            offset = rng.randrange(0, 100) * 4 * KIB
            yield from fs.read("/f", offset, 4 * KIB)

    sim.run_process(body())
    assert fs.readahead_hits == 0


def test_write_invalidates_readahead():
    sim, _device, fs = make_fs(RA_SPEC)
    prime(sim, fs)

    def body():
        # Trigger read-ahead past block 2.
        yield from fs.read("/f", 0, 8 * KIB)
        yield from fs.read("/f", 8 * KIB, 8 * KIB)
        # Overwrite a block that is sitting in the prefetch buffers.
        yield from fs.write("/f", 16 * KIB, b"\xee" * (4 * KIB))
        data = yield from fs.read("/f", 16 * KIB, 4 * KIB)
        return data

    assert sim.run_process(body()) == b"\xee" * (4 * KIB)


def test_readahead_capped():
    sim, _device, fs = make_fs(RA_SPEC)
    prime(sim, fs)

    def body():
        for index in range(40):
            yield from fs.read("/f", index * 4 * KIB, 4 * KIB)

    sim.run_process(body())
    assert len(fs._readahead) <= 2 * RA_SPEC.readahead_blocks


def test_readahead_stops_at_eof():
    sim, _device, fs = make_fs(RA_SPEC)
    sim.run_process(fs.create("/tiny"))
    sim.run_process(fs.write("/tiny", 0, b"z" * (6 * KIB)))
    sim.run_process(fs.sync())

    def body():
        a = yield from fs.read("/tiny", 0, 4 * KIB)
        b = yield from fs.read("/tiny", 4 * KIB, 4 * KIB)
        return a, b

    a, b = sim.run_process(body())
    assert a == b"z" * (4 * KIB)
    assert b == b"z" * (2 * KIB)
