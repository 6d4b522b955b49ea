"""Integration tests for the assembled RAID-II and RAID-I servers.

These include the first calibration anchors: the RAID-I 2.3 MB/s
ceiling, hardware-level throughput in the right regime, and the
network-client rates of Section 3.4.
"""

import random

from repro.net import UltranetLink
from repro.server import Raid1Server, Raid2Config, Raid2Server
from repro.server.raid2 import make_sparcstation_client
from repro.sim import Simulator
from repro.testing import assert_parity_clean
from repro.units import KIB, MB, MIB
from repro.workloads import (random_aligned_offsets, run_request_stream,
                             sequential_offsets)


def pattern(nbytes, seed=0):
    return random.Random(seed).randbytes(nbytes)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_default_server_shape():
    sim = Simulator()
    server = Raid2Server(sim)
    assert len(server.boards) == 1
    assert len(server.raid.paths) == 24
    assert server.raid.capacity_bytes > 7000 * MB  # 23/24 of 24 x 320 MB


def test_table1_config_has_thirty_disks():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.table1_sequential())
    assert len(server.raid.paths) == 30


def test_fig8_config_has_sixteen_disks():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    assert len(server.raid.paths) == 16


def test_multi_board_server():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config(boards=2))
    assert len(server.boards) == 2
    assert len(server.raids) == 2


# ---------------------------------------------------------------------------
# hardware system level paths
# ---------------------------------------------------------------------------

def test_hw_write_then_read_roundtrip_data():
    sim = Simulator()
    server = Raid2Server(sim)

    def body():
        yield from server.hw_write(0, 512 * KIB, fill=0xAB)
        yield from server.hw_read(0, 512 * KIB)

    sim.run_process(body())
    assert server.raid.peek(0, 512 * KIB) == b"\xab" * (512 * KIB)
    assert assert_parity_clean(server.raid, max_rows=1).rows_checked == 1


def test_hw_large_random_read_rate_near_20_mb_s():
    """Figure 5 anchor: large random reads land near 20 MB/s."""
    sim = Simulator()
    server = Raid2Server(sim)
    rng = random.Random(11)
    requests = random_aligned_offsets(
        rng, server.raid.capacity_bytes, 1536 * KIB, 10, alignment=512)

    def op(offset, size):
        yield from server.hw_read(offset, size)

    result = run_request_stream(sim, op, requests)
    assert 15.0 < result.mb_per_s < 26.0


def test_hw_sequential_read_faster_than_random():
    """Table 1 vs Figure 5: the streaming sequential harness beats
    synchronous random requests.

    The sequential test strides by whole stripe rows and keeps three
    requests in flight (the read-ahead/double-buffering any streaming
    driver provides); the random test issues synchronous back-to-back
    requests, as Figure 5's harness did.
    """
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.table1_sequential())
    row = server.raid.layout.data_units_per_row * server.raid.stripe_unit_bytes
    stride = -(-1600 * KIB // row) * row
    seq = [(i * stride, 1600 * KIB) for i in range(20)]

    def op(offset, size):
        yield from server.hw_read(offset, size)

    sequential_rate = run_request_stream(sim, op, seq,
                                         concurrency=3).mb_per_s

    sim2 = Simulator()
    server2 = Raid2Server(sim2, Raid2Config.paper_default())
    rng = random.Random(3)
    rand = random_aligned_offsets(
        rng, server2.raid.capacity_bytes, 1600 * KIB, 20, alignment=512)

    def op2(offset, size):
        yield from server2.hw_read(offset, size)

    random_rate = run_request_stream(sim2, op2, rand).mb_per_s
    assert sequential_rate > 1.25 * random_rate


def test_hw_reads_faster_than_writes():
    """Writes pay parity traffic and get no read-ahead (Section 2.3)."""
    sim = Simulator()
    server = Raid2Server(sim)
    seq = sequential_offsets(server.raid.capacity_bytes, 1536 * KIB, 6)

    def read_op(offset, size):
        yield from server.hw_read(offset, size)

    read_rate = run_request_stream(sim, read_op, seq).mb_per_s

    sim2 = Simulator()
    server2 = Raid2Server(sim2)

    def write_op(offset, size):
        yield from server2.hw_write(offset, size)

    write_rate = run_request_stream(sim2, write_op, seq).mb_per_s
    assert read_rate > write_rate


# ---------------------------------------------------------------------------
# LFS on the server
# ---------------------------------------------------------------------------

def test_lfs_on_server_roundtrip():
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    payload = pattern(2 * MIB, seed=5)

    def body():
        yield from server.fs.create("/data")
        yield from server.fs.write("/data", 0, payload)
        yield from server.fs.sync()
        data = yield from server.fs.read("/data", 0, len(payload))
        return data

    assert sim.run_process(body()) == payload
    assert assert_parity_clean(server.raid, max_rows=8).rows_checked == 8


def test_lfs_segment_flush_uses_full_stripe_writes():
    """LFS's large sequential segments become efficient array writes."""
    sim = Simulator()
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())

    def body():
        yield from server.fs.create("/f")
        yield from server.fs.write("/f", 0, pattern(4 * MIB, seed=6))
        yield from server.fs.sync()

    sim.run_process(body())
    # Each whole-segment flush (960 KiB = one stripe row of the 16-disk
    # array) lands as one full-stripe write; only checkpoint-region and
    # partial-fragment writes fall back to read-modify-write.
    assert server.raid.full_stripe_writes >= 3


# ---------------------------------------------------------------------------
# network clients (Section 3.4 anchors)
# ---------------------------------------------------------------------------

def make_lfs_server_with_file(sim, nbytes, seed=7):
    server = Raid2Server(sim, Raid2Config.fig8_lfs())
    sim.run_process(server.setup_lfs())
    payload = pattern(nbytes, seed=seed)

    def body():
        yield from server.fs.create("/file")
        yield from server.fs.write("/file", 0, payload)
        yield from server.fs.sync()

    sim.run_process(body())
    return server, payload


def test_client_read_rate_near_3_mb_s():
    sim = Simulator()
    server, payload = make_lfs_server_with_file(sim, 4 * MIB)
    client = make_sparcstation_client(sim)
    link = UltranetLink(sim)

    start = sim.now
    data = sim.run_process(
        server.client_read(client, link, "/file", 0, len(payload)))
    rate = len(payload) / MB / (sim.now - start)
    assert data == payload
    assert 2.4 < rate < 4.2


def test_client_write_rate_near_3_mb_s():
    sim = Simulator()
    server, _payload = make_lfs_server_with_file(sim, 64 * KIB)
    client = make_sparcstation_client(sim)
    link = UltranetLink(sim)
    blob = pattern(4 * MIB, seed=8)

    start = sim.now
    sim.run_process(server.client_write(client, link, "/file", 0, blob))
    rate = len(blob) / MB / (sim.now - start)
    assert 2.3 < rate < 4.0


def test_client_write_leaves_host_cpu_nearly_idle():
    """Section 3.4: host utilization 'close to zero' during client writes."""
    sim = Simulator()
    server, _payload = make_lfs_server_with_file(sim, 64 * KIB)
    client = make_sparcstation_client(sim)
    link = UltranetLink(sim)
    blob = pattern(2 * MIB, seed=9)

    start = sim.now
    sim.run_process(server.client_write(client, link, "/file", 0, blob))
    elapsed = sim.now - start
    assert server.host.cpu_utilization(elapsed) < 0.15


def test_ethernet_path_is_slow_but_correct():
    sim = Simulator()
    server, payload = make_lfs_server_with_file(sim, 256 * KIB)
    start = sim.now
    data = sim.run_process(server.ethernet_read("/file", 0, len(payload)))
    rate = len(payload) / MB / (sim.now - start)
    assert data == payload
    assert rate < 1.3  # Ethernet line rate bound


def test_ethernet_write_roundtrip():
    sim = Simulator()
    server, _payload = make_lfs_server_with_file(sim, 64 * KIB)
    blob = pattern(32 * KIB, seed=10)
    sim.run_process(server.ethernet_write("/file", 0, blob))
    data = sim.run_process(server.ethernet_read("/file", 0, len(blob)))
    assert data == blob


# ---------------------------------------------------------------------------
# the RAID-I baseline (Section 1 anchors)
# ---------------------------------------------------------------------------

def test_raid1_app_read_saturates_near_2_3_mb_s():
    """The famous ceiling: 2.3 MB/s to a user-level application."""
    sim = Simulator()
    server = Raid1Server(sim)
    seq = sequential_offsets(server.raid.capacity_bytes, 1 * MIB, 8)

    def op(offset, size):
        yield from server.app_read(offset, size)

    rate = run_request_stream(sim, op, seq).mb_per_s
    assert 2.0 < rate < 2.6


def test_raid1_single_disk_read_near_1_3_mb_s():
    sim = Simulator()
    server = Raid1Server(sim)
    disk = server.paths[0].disk
    requests = sequential_offsets(disk.spec.capacity_bytes, 64 * KIB, 16)

    def op(offset, size):
        yield from server.single_disk_read(0, offset // 512, size // 512)

    # Two outstanding requests: the user-space copy of one overlaps the
    # disk transfer of the next (the kernel's read-ahead).
    rate = run_request_stream(sim, op, requests, concurrency=2).mb_per_s
    assert 1.1 < rate < 1.5


def test_raid2_hw_order_of_magnitude_faster_than_raid1():
    """The paper's headline: RAID-II is ~10x RAID-I on bandwidth."""
    sim1 = Simulator()
    raid1 = Raid1Server(sim1)
    seq1 = sequential_offsets(raid1.raid.capacity_bytes, 1 * MIB, 6)

    def op1(offset, size):
        yield from raid1.app_read(offset, size)

    rate1 = run_request_stream(sim1, op1, seq1).mb_per_s

    sim2 = Simulator()
    raid2 = Raid2Server(sim2)
    seq2 = sequential_offsets(raid2.raid.capacity_bytes, 1536 * KIB, 6)

    def op2(offset, size):
        yield from raid2.hw_read(offset, size)

    rate2 = run_request_stream(sim2, op2, seq2).mb_per_s
    assert rate2 > 7 * rate1
