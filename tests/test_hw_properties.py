"""Property-based tests for the hardware timing models."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MediumError
from repro.hw import IBM_0661, SEAGATE_WREN_IV, DiskDrive
from repro.hw.vme import Direction, VmePort
from repro.sim import BandwidthChannel, Simulator
from repro.units import SECTOR_SIZE

specs = st.sampled_from([IBM_0661, SEAGATE_WREN_IV])


@given(spec=specs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_seek_time_monotone_and_bounded(spec, data):
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    ncyl = spec.num_cylinders
    a = data.draw(st.integers(0, ncyl - 1))
    b = data.draw(st.integers(0, ncyl - 1))
    c = data.draw(st.integers(0, ncyl - 1))
    t_ab = disk.seek_time(a, b)
    # Symmetry.
    assert t_ab == disk.seek_time(b, a)
    # Zero distance is free; any move costs at least the settle time.
    if a == b:
        assert t_ab == 0.0
    else:
        assert spec.min_seek_s <= t_ab <= spec.max_seek_s
    # Monotone in distance.
    if abs(a - c) >= abs(a - b):
        assert disk.seek_time(a, c) >= t_ab - 1e-12


@given(spec=specs,
       nsectors=st.integers(min_value=1, max_value=512))
@settings(max_examples=40, deadline=None)
def test_media_transfer_linear_in_size(spec, nsectors):
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    one = disk.media_transfer_time(SECTOR_SIZE)
    many = disk.media_transfer_time(nsectors * SECTOR_SIZE)
    assert abs(many - nsectors * one) < 1e-9


@given(spec=specs, data=st.data())
@settings(max_examples=30, deadline=None)
def test_random_op_never_cheaper_than_sequential(spec, data):
    """For the same transfer, a cold random op costs at least as much
    as a sequential continuation."""
    sim = Simulator()
    disk = DiskDrive(sim, spec)
    nsectors = data.draw(st.integers(1, 256))
    span = disk.num_sectors - 2 * nsectors - 1

    def run_sequential():
        yield from disk.read(0, nsectors)
        start = sim.now
        yield from disk.read(nsectors, nsectors)
        return sim.now - start

    sequential = sim.run_process(run_sequential())

    far_lba = data.draw(st.integers(nsectors + 1, span))
    start = sim.now

    def run_random():
        yield from disk.read(far_lba + nsectors, nsectors)

    sim.run_process(run_random())
    random_cost = sim.now - start
    assert random_cost >= sequential - 1e-12


@given(sizes=st.lists(st.integers(1, 1_000_000), min_size=1, max_size=6),
       rate=st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_channel_serial_time_is_additive(sizes, rate):
    sim = Simulator()
    channel = BandwidthChannel(sim, rate_mb_s=rate)

    def mover():
        for size in sizes:
            yield from channel.transfer(size)

    sim.run_process(mover())
    expected = sum(channel.transfer_time(size) for size in sizes)
    assert abs(sim.now - expected) < 1e-9
    assert channel.bytes_moved == sum(sizes)


@given(nbytes=st.integers(0, 10_000_000))
@settings(max_examples=40, deadline=None)
def test_vme_write_never_faster_than_read(nbytes):
    sim = Simulator()
    port = VmePort(sim)
    assert port.transfer_time(nbytes, Direction.WRITE) >= \
        port.transfer_time(nbytes, Direction.READ)


#: A small drive whose last 4 KiB store block is partial (100 sectors).
_SMALL_DISK = dataclasses.replace(IBM_0661, capacity_bytes=100 * SECTOR_SIZE)
_NSECTORS = _SMALL_DISK.capacity_bytes // SECTOR_SIZE

_extents = st.tuples(st.integers(0, _NSECTORS - 1), st.integers(1, 40))
store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("poke"), _extents, st.integers(0, 2**16)),
        st.tuples(st.just("peek"), _extents),
        st.tuples(st.just("read"), _extents),
        st.tuples(st.just("mark_bad"), _extents),
        st.tuples(st.just("wipe"),),
        st.tuples(st.just("snapshot"),),
        st.tuples(st.just("restore"),),
    ),
    min_size=1, max_size=25,
)


@given(ops=store_ops)
@settings(max_examples=50, deadline=None)
def test_disk_store_roundtrip_any_payload(ops):
    """The block store matches a flat bytearray shadow under any mix of
    pokes (partial, straddling 4 KiB blocks), reads of unwritten space,
    latent errors healed by rewrites, wipes and snapshot/restore."""
    sim = Simulator()
    disk = DiskDrive(sim, _SMALL_DISK)
    shadow = bytearray(_SMALL_DISK.capacity_bytes)
    bad: set[int] = set()
    saved = None
    for op in ops:
        kind = op[0]
        if kind in ("poke", "peek", "read", "mark_bad"):
            lba, nsectors = op[1]
            nsectors = min(nsectors, _NSECTORS - lba)
            lo, hi = lba * SECTOR_SIZE, (lba + nsectors) * SECTOR_SIZE
        if kind == "poke":
            payload = random.Random(op[2]).randbytes(hi - lo)
            disk.poke(lba, payload)
            shadow[lo:hi] = payload
            bad.difference_update(range(lba, lba + nsectors))
        elif kind == "peek":
            assert disk.peek(lba, nsectors) == shadow[lo:hi]
        elif kind == "read":
            if bad.isdisjoint(range(lba, lba + nsectors)):
                assert sim.run_process(disk.read(lba, nsectors)) == \
                    shadow[lo:hi]
            else:
                with pytest.raises(MediumError):
                    sim.run_process(disk.read(lba, nsectors))
        elif kind == "mark_bad":
            disk.mark_bad(lba, nsectors)
            bad.update(range(lba, lba + nsectors))
        elif kind == "wipe":
            disk.repair(wipe=True)
            shadow[:] = bytes(len(shadow))
            bad.clear()
        elif kind == "snapshot":
            saved = (disk.snapshot(), bytes(shadow))
        elif saved is not None:
            disk.restore(saved[0])
            shadow[:] = saved[1]
    assert disk.peek(0, _NSECTORS) == shadow
    for lba in range(_NSECTORS):
        if lba in bad:
            with pytest.raises(MediumError):
                sim.run_process(disk.read(lba, 1))
        else:
            sim.run_process(disk.read(lba, 1))
