"""Unit tests for SCSI strings and Cougar controllers."""

import pytest

from repro.errors import HardwareError
from repro.hw import COUGAR_SPEC, IBM_0661, CougarController, DiskDrive, ScsiString
from repro.sim import Simulator
from repro.units import KIB, MB


@pytest.fixture
def sim():
    return Simulator()


def make_cougar(sim, disks_per_string=3):
    cougar = CougarController(sim, name="c0")
    for string_index, string in enumerate(cougar.strings):
        for disk_index in range(disks_per_string):
            string.attach(DiskDrive(sim, IBM_0661,
                                    name=f"d{string_index}.{disk_index}"))
    return cougar


def test_string_attach_and_duplicate_rejected(sim):
    string = ScsiString(sim)
    disk = DiskDrive(sim, IBM_0661)
    string.attach(disk)
    with pytest.raises(HardwareError):
        string.attach(disk)
    assert string.disks == [disk]


def test_string_transfer_tracks_activity(sim):
    string = ScsiString(sim)
    observed = []

    def mover():
        yield from string.transfer(64 * KIB)

    def watcher():
        yield sim.timeout(0.001)
        observed.append(string.busy)

    sim.process(mover())
    sim.process(watcher())
    sim.run()
    assert observed == [True]
    assert not string.busy


def test_cougar_read_returns_disk_bytes(sim):
    cougar = make_cougar(sim)
    disk = cougar.strings[0].disks[0]
    disk.poke(0, b"\x5a" * (64 * KIB))

    def body():
        data = yield from cougar.read(disk, 0, 128)
        return data

    assert sim.run_process(body()) == b"\x5a" * (64 * KIB)


def test_cougar_write_lands_on_disk(sim):
    cougar = make_cougar(sim)
    disk = cougar.strings[1].disks[2]
    payload = b"\x3c" * (8 * KIB)

    def body():
        yield from cougar.write(disk, 64, payload)

    sim.run_process(body())
    assert disk.peek(64, 16) == payload


def test_string_of_unknown_disk_rejected(sim):
    cougar = make_cougar(sim)
    stranger = DiskDrive(sim, IBM_0661, name="stranger")
    with pytest.raises(HardwareError):
        cougar.string_of(stranger)


def test_disks_property_lists_all(sim):
    cougar = make_cougar(sim)
    assert len(cougar.disks) == 6


def test_string_is_the_bottleneck_for_three_disks(sim):
    """Three disks streaming on one string are capped near 3 MB/s.

    This is the saturation behaviour of Figure 7.
    """
    cougar = make_cougar(sim)
    string = cougar.strings[0]
    total_each = 1 * MB
    unit = 64 * KIB

    def streamer(disk):
        for index in range(total_each // unit):
            yield from cougar.read(disk, index * 128, 128)

    for disk in string.disks:
        sim.process(streamer(disk))
    elapsed = sim.run()
    rate = 3 * total_each / MB / elapsed
    assert 2.8 < rate < 3.4


def test_single_disk_not_string_limited(sim):
    """One disk on a string runs at its own ~2 MB/s, below the string cap."""
    cougar = make_cougar(sim)
    disk = cougar.strings[0].disks[0]
    total = 1 * MB
    unit = 64 * KIB

    def streamer():
        for index in range(total // unit):
            yield from cougar.read(disk, index * 128, 128)

    sim.process(streamer())
    elapsed = sim.run()
    rate = total / MB / elapsed
    assert 1.8 < rate < 2.3


def test_dual_string_contention_counted(sim):
    cougar = make_cougar(sim)
    d_a = cougar.strings[0].disks[0]
    d_b = cougar.strings[1].disks[0]

    def streamer(disk):
        for index in range(8):
            yield from cougar.read(disk, index * 128, 128)

    sim.process(streamer(d_a))
    sim.process(streamer(d_b))
    sim.run()
    assert cougar.contention_events > 0
    # The count lives in the metrics registry; the attribute reads it.
    snapshot = sim.metrics.snapshot()[cougar.name]
    assert snapshot["contention_events"]["value"] == cougar.contention_events


def test_dual_string_contention_slows_transfers():
    """Running both strings at once costs the per-op controller delay.

    Compare the same two-string workload against a controller whose
    contention penalty is zeroed: the elapsed difference is roughly one
    penalty per operation.
    """
    import dataclasses

    unit_sectors = 128
    ops = 12

    def run_two_strings(penalty):
        local_sim = Simulator()
        spec = dataclasses.replace(COUGAR_SPEC, dual_string_penalty_s=penalty)
        cougar = CougarController(local_sim, spec, name="c0")
        for string in cougar.strings:
            string.attach(DiskDrive(local_sim, IBM_0661))

        def streamer(disk):
            for index in range(ops):
                yield from cougar.read(disk, index * unit_sectors,
                                       unit_sectors)

        local_sim.process(streamer(cougar.strings[0].disks[0]))
        local_sim.process(streamer(cougar.strings[1].disks[0]))
        return local_sim.run()

    with_penalty = run_two_strings(COUGAR_SPEC.dual_string_penalty_s)
    without_penalty = run_two_strings(0.0)
    extra = with_penalty - without_penalty
    assert extra > 0.5 * ops * COUGAR_SPEC.dual_string_penalty_s
