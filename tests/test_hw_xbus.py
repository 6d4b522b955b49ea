"""Unit tests for VME ports, XBUS memory, parity engine and the board."""

import random

import pytest

from repro.errors import HardwareError
from repro.hw import (VME_CONTROL_PORT_SPEC, VME_DATA_PORT_SPEC, ParityEngine,
                      VmePort, XbusBoard, XbusMemory)
from repro.hw.parity import xor_blocks
from repro.hw.vme import Direction
from repro.hw.xbus_board import XbusConfig
from repro.sim import Simulator
from repro.units import KIB, MB, MIB


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# VME ports
# ---------------------------------------------------------------------------

def test_vme_read_rate(sim):
    port = VmePort(sim)

    def body():
        yield from port.transfer(6_900_000, Direction.READ)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(1.0, rel=0.01)


def test_vme_write_slower_than_read(sim):
    port = VmePort(sim)
    read_time = port.transfer_time(1 * MB, Direction.READ)
    write_time = port.transfer_time(1 * MB, Direction.WRITE)
    assert write_time > read_time
    assert 1 * MB / (write_time) == pytest.approx(5.9 * MB, rel=0.02)


def test_vme_control_port_slower_than_data_port():
    assert (VME_CONTROL_PORT_SPEC.read_rate_mb_s
            < VME_DATA_PORT_SPEC.read_rate_mb_s)


def test_vme_serializes(sim):
    port = VmePort(sim)
    done = []

    def mover(tag):
        yield from port.transfer(690_000, Direction.READ)
        done.append((tag, sim.now))

    sim.process(mover("a"))
    sim.process(mover("b"))
    sim.run()
    assert done[1][1] == pytest.approx(2 * done[0][1], rel=0.05)


def test_vme_negative_size_rejected(sim):
    port = VmePort(sim)
    with pytest.raises(Exception):
        port.transfer_time(-1, Direction.READ)


# ---------------------------------------------------------------------------
# XBUS memory
# ---------------------------------------------------------------------------

def test_memory_aggregate_rate(sim):
    memory = XbusMemory(sim)

    def body():
        yield from memory.access(160 * MB // 100)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(0.01, rel=0.01)


def test_memory_access_moves_bytes_on_bank_channel(sim):
    memory = XbusMemory(sim)

    def body():
        yield from memory.access(400)

    sim.run_process(body())
    assert memory.channel.bytes_moved == 400


def test_memory_capacity(sim):
    memory = XbusMemory(sim)
    assert memory.capacity_bytes == 32 * MIB


# ---------------------------------------------------------------------------
# parity engine
# ---------------------------------------------------------------------------

def test_xor_blocks_correctness():
    a = bytes([0b1010] * 16)
    b = bytes([0b0110] * 16)
    c = bytes([0b0001] * 16)
    parity = xor_blocks([a, b, c])
    assert parity == bytes([0b1101] * 16)
    # XOR-ing parity back in recovers any block.
    assert xor_blocks([parity, b, c]) == a


@pytest.mark.parametrize("count", [1, 2, 3])
def test_xor_blocks_mixed_buffer_types(count):
    rng = random.Random(count)
    raw = [rng.randbytes(4096) for _ in range(count)]
    expected = raw[0]
    for block in raw[1:]:
        expected = bytes(x ^ y for x, y in zip(expected, block))
    # Each block's bytes as bytes, bytearray and a memoryview slice of
    # a larger buffer, in every rotation across the positions.
    shapes = [bytes, bytearray,
              lambda data: memoryview(b"pad" + data + b"pad")[3:-3]]
    for shift in range(len(shapes)):
        blocks = [shapes[(index + shift) % len(shapes)](data)
                  for index, data in enumerate(raw)]
        parity = xor_blocks(blocks)
        assert type(parity) is bytes
        assert parity == expected
    # Inputs are read, never written.
    assert [bytes(block) for block in blocks] == raw
    # A short block of any type is named by its index.
    with pytest.raises(HardwareError, match=f"block {count} differs"):
        xor_blocks(blocks + [memoryview(bytearray(4095))])


def test_xor_blocks_length_mismatch_rejected():
    with pytest.raises(HardwareError):
        xor_blocks([b"ab", b"abc"])


def test_xor_blocks_empty_rejected():
    with pytest.raises(HardwareError):
        xor_blocks([])


def test_xor_blocks_accepts_memoryviews_and_bytearrays():
    a = bytes(range(64))
    b = bytearray(x ^ 0x5A for x in range(64))
    expected = xor_blocks([a, bytes(b)])
    assert xor_blocks([memoryview(a), b]) == expected
    assert xor_blocks([a, memoryview(b)]) == expected


def test_xor_blocks_adjacent_slices_match_separate_blocks():
    # The zero-copy write path hands xor_blocks consecutive memoryview
    # slices of one payload; they must agree with standalone copies of
    # the same blocks bit for bit.
    import random
    payload = random.Random(7).randbytes(4 * 512)
    view = memoryview(payload)
    adjacent = [view[i * 512:(i + 1) * 512] for i in range(4)]
    separate = [bytes(block) for block in adjacent]
    assert xor_blocks(adjacent) == xor_blocks(separate)


def test_xor_blocks_length_mismatch_names_offender():
    with pytest.raises(HardwareError, match="block 2"):
        xor_blocks([b"aaaa", b"bbbb", b"ccc"])


def test_xor_blocks_single_block_returns_copy():
    block = bytearray(b"\x01\x02\x03\x04")
    parity = xor_blocks([block])
    assert parity == b"\x01\x02\x03\x04"
    block[0] = 0xFF
    assert parity == b"\x01\x02\x03\x04"


def test_parity_engine_timed_compute(sim):
    engine = ParityEngine(sim)
    blocks = [bytes([i]) * (64 * KIB) for i in range(4)]

    def body():
        parity = yield from engine.compute(blocks)
        return parity, sim.now

    parity, elapsed = sim.run_process(body())
    assert parity == xor_blocks(blocks)
    # 4 inputs + 1 output = 5 * 64 KB over a 40 MB/s port.
    assert elapsed == pytest.approx(5 * 64 * KIB / (40 * MB), rel=0.01)


# ---------------------------------------------------------------------------
# the assembled board
# ---------------------------------------------------------------------------

def test_board_default_config(sim):
    board = XbusBoard(sim)
    assert len(board.cougars) == 4
    assert len(board.disks) == 24
    assert len(board.disk_paths()) == 24


def test_board_control_cougar_adds_six_disks(sim):
    board = XbusBoard(sim, XbusConfig(control_cougar=True))
    assert len(board.cougars) == 5
    assert len(board.disks) == 30


def test_board_rejects_too_many_data_cougars(sim):
    with pytest.raises(HardwareError):
        XbusBoard(sim, XbusConfig(data_cougars=5))


def test_disk_path_order_interleaves_strings_last(sim):
    """First 12 paths use string 0 of each cougar; second string only after."""
    board = XbusBoard(sim)
    paths = board.disk_paths()
    for path in paths[:12]:
        assert path.cougar.strings[0] is path.cougar.string_of(path.disk)
    for path in paths[12:]:
        assert path.cougar.strings[1] is path.cougar.string_of(path.disk)
    # Consecutive units land on different cougars.
    first_four = [path.cougar.name for path in paths[:4]]
    assert len(set(first_four)) == 4


def test_disk_paths_limit(sim):
    board = XbusBoard(sim)
    assert len(board.disk_paths(limit=16)) == 16
    with pytest.raises(HardwareError):
        board.disk_paths(limit=25)


def test_disk_path_roundtrip(sim):
    board = XbusBoard(sim)
    path = board.disk_paths()[5]
    payload = b"\x77" * (64 * KIB)

    def body():
        yield from path.write(0, payload)
        data = yield from path.read(0, 128)
        return data

    assert sim.run_process(body()) == payload


def test_disk_path_read_slower_than_raw_disk(sim):
    """The full path charges at least the VME-port time."""
    board = XbusBoard(sim)
    path = board.disk_paths()[0]

    def body():
        yield from path.read(0, 128)
        return sim.now

    elapsed = sim.run_process(body())
    vme_floor = path.port.transfer_time(64 * KIB, Direction.READ)
    assert elapsed > vme_floor


def test_hippi_loopback_moves_both_directions(sim):
    board = XbusBoard(sim)

    def body():
        yield from board.hippi_loopback(1 * MB)
        return sim.now

    elapsed = sim.run_process(body())
    # Both directions stream concurrently: the loopback takes one
    # direction's time, sustaining 38.5 MB/s each way.
    one_way = 1 * MB / (38.5 * MB) + 0.0011
    assert elapsed == pytest.approx(one_way, rel=0.05)
    assert board.hippi_source.packets_sent == 1
    assert board.hippi_dest.packets_sent == 1


def test_board_parity_matches_pure_xor(sim):
    board = XbusBoard(sim)
    blocks = [bytes([i + 1]) * 1024 for i in range(3)]

    def body():
        parity = yield from board.compute_parity(blocks)
        return parity

    assert sim.run_process(body()) == xor_blocks(blocks)


def test_host_transfers_use_control_port(sim):
    board = XbusBoard(sim)

    def body():
        yield from board.to_host(100 * KIB)
        yield from board.from_host(100 * KIB)

    sim.run_process(body())
    assert board.control_port.bytes_moved == 200 * KIB
