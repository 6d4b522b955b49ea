"""Concurrency tests: LFS under simultaneous client activity.

The file system serializes operations on its op lock (one host CPU,
as on Sprite); these tests check that arbitrary interleavings of
concurrent processes never corrupt state or lose writes.
"""

import dataclasses
import random

from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0005,
                                small_write_overhead_s=0.0005)


def make_fs(capacity=16 * MIB):
    sim = Simulator()
    device = MemoryDevice(sim, capacity)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs.format())
    return sim, device, fs


def pattern(nbytes, seed):
    return random.Random(seed).randbytes(nbytes)


def test_concurrent_writers_to_distinct_files():
    sim, _device, fs = make_fs()
    nwriters = 6
    per_file = 256 * KIB

    def writer(index):
        path = f"/w{index}"
        yield from fs.create(path)
        payload = pattern(per_file, seed=index)
        for position in range(0, per_file, 32 * KIB):
            yield from fs.write(path, position,
                                payload[position:position + 32 * KIB])

    for index in range(nwriters):
        sim.process(writer(index))
    sim.run()
    sim.run_process(fs.sync())

    for index in range(nwriters):
        data = sim.run_process(fs.read(f"/w{index}", 0, per_file))
        assert data == pattern(per_file, seed=index)


def test_concurrent_reader_and_writer_on_one_file():
    """A reader racing a writer sees either old or new bytes per op,
    never torn garbage, and the final state is the last write."""
    sim, _device, fs = make_fs()
    sim.run_process(fs.create("/shared"))
    versions = [pattern(64 * KIB, seed=100 + v) for v in range(8)]
    sim.run_process(fs.write("/shared", 0, versions[0]))
    observed = []

    def writer():
        for version in versions[1:]:
            yield from fs.write("/shared", 0, version)

    def reader():
        for _ in range(12):
            data = yield from fs.read("/shared", 0, 64 * KIB)
            observed.append(data)

    sim.process(writer())
    sim.process(reader())
    sim.run()

    valid = {bytes(v) for v in versions}
    for data in observed:
        assert data in valid
    final = sim.run_process(fs.read("/shared", 0, 64 * KIB))
    assert final == versions[-1]


def test_concurrent_namespace_operations():
    sim, _device, fs = make_fs()

    def creator(base):
        for index in range(10):
            yield from fs.create(f"/{base}-{index}")

    for base in ("a", "b", "c"):
        sim.process(creator(base))
    sim.run()
    entries = sim.run_process(fs.readdir("/"))
    assert len(entries) == 30


def test_concurrent_create_then_unlink_interleaved():
    sim, _device, fs = make_fs()

    def churner(base):
        for index in range(8):
            path = f"/{base}{index}"
            yield from fs.create(path)
            yield from fs.write(path, 0, pattern(8 * KIB, seed=index))
            if index % 2 == 0:
                yield from fs.unlink(path)

    sim.process(churner("x"))
    sim.process(churner("y"))
    sim.run()
    entries = sim.run_process(fs.readdir("/"))
    assert sorted(entries) == sorted(
        [f"x{i}" for i in range(8) if i % 2] +
        [f"y{i}" for i in range(8) if i % 2])


def test_sync_races_with_writes():
    """Periodic syncs interleaved with writers must not lose data."""
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    total = 512 * KIB
    payload = pattern(total, seed=7)

    def writer():
        for position in range(0, total, 16 * KIB):
            yield from fs.write("/f", position,
                                payload[position:position + 16 * KIB])

    def syncer():
        for _ in range(6):
            yield fs.sim.timeout(0.05)
            yield from fs.sync()

    sim.process(writer())
    sim.process(syncer())
    sim.run()
    sim.run_process(fs.sync())
    assert sim.run_process(fs.read("/f", 0, total)) == payload

    # And the synced state survives a crash.
    fs.crash()
    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs2.mount())
    assert sim.run_process(fs2.read("/f", 0, total)) == payload


def test_checkpoint_races_with_writes():
    sim, device, fs = make_fs()
    sim.run_process(fs.create("/f"))
    payload = pattern(256 * KIB, seed=9)

    def writer():
        for position in range(0, len(payload), 32 * KIB):
            yield from fs.write("/f", position,
                                payload[position:position + 32 * KIB])

    def checkpointer():
        for _ in range(3):
            yield fs.sim.timeout(0.07)
            yield from fs.checkpoint()

    sim.process(writer())
    sim.process(checkpointer())
    sim.run()
    sim.run_process(fs.checkpoint())
    fs.crash()
    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=128)
    sim.run_process(fs2.mount())
    assert sim.run_process(fs2.read("/f", 0, len(payload))) == payload
