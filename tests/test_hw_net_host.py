"""Unit tests for HIPPI/Ethernet models and the workstation/host cache."""

import pytest

from repro.errors import HardwareError
from repro.host import LruBlockCache, Workstation
from repro.hw import Ethernet, HippiPort
from repro.hw.specs import SPARCSTATION_10_51, SUN_4_280_RAID1, SUN_4_280_RAID2
from repro.sim import Simulator
from repro.units import KB, MB


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# HIPPI
# ---------------------------------------------------------------------------

def test_hippi_large_transfer_near_port_rate(sim):
    port = HippiPort(sim)

    def body():
        yield from port.send(10 * MB)
        return sim.now

    elapsed = sim.run_process(body())
    assert 10 / elapsed == pytest.approx(38.5, rel=0.02)


def test_hippi_small_transfer_dominated_by_setup(sim):
    port = HippiPort(sim)

    def body():
        yield from port.send(1 * KB)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed > 0.0011
    assert 1 * KB / MB / elapsed < 1.0  # far below line rate


def test_hippi_multiple_packets_charge_setup_each(sim):
    port = HippiPort(sim)

    def body():
        yield from port.send(64 * KB, packets=4)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(4 * 0.0011 + 64 * KB / (38.5 * MB),
                                    rel=0.02)


def test_hippi_rejects_bad_args(sim):
    port = HippiPort(sim)

    def bad_size():
        yield from port.send(-1)

    def bad_packets():
        yield from port.send(10, packets=0)

    with pytest.raises(HardwareError):
        sim.run_process(bad_size())
    with pytest.raises(HardwareError):
        sim.run_process(bad_packets())


# ---------------------------------------------------------------------------
# Ethernet
# ---------------------------------------------------------------------------

def test_ethernet_line_rate(sim):
    ether = Ethernet(sim)

    def body():
        yield from ether.send(1 * MB)
        return sim.now

    elapsed = sim.run_process(body())
    # ~1.25 MB/s line rate degraded by per-packet costs.
    assert 0.9 < 1 / elapsed < 1.25


def test_ethernet_packet_count(sim):
    ether = Ethernet(sim)
    assert ether.packets_for(1) == 1
    assert ether.packets_for(1500) == 1
    assert ether.packets_for(1501) == 2

    def body():
        yield from ether.send(4500)

    sim.run_process(body())
    assert ether.packets_sent == 3


def test_ethernet_two_orders_slower_than_hippi(sim):
    ether = Ethernet(sim)
    hippi = HippiPort(sim)
    # Paper: HIPPI loopback bandwidth is two orders of magnitude greater
    # than Ethernet.
    ratio = (ether.channel.transfer_time(1 * MB)
             / hippi.channel.transfer_time(1 * MB))
    assert ratio > 25


# ---------------------------------------------------------------------------
# Workstation
# ---------------------------------------------------------------------------

def test_cpu_work_serializes(sim):
    host = Workstation(sim, SUN_4_280_RAID2)
    finished = []

    def worker(tag):
        yield from host.cpu_work(0.01)
        finished.append((tag, sim.now))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert finished[0][1] == pytest.approx(0.01)
    assert finished[1][1] == pytest.approx(0.02)
    assert host.cpu_busy_time == pytest.approx(0.02)


def test_handle_io_charges_per_io_cost(sim):
    host = Workstation(sim, SUN_4_280_RAID2)

    def body():
        yield from host.handle_io()
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(SUN_4_280_RAID2.per_io_cpu_s)
    assert host.ios_handled == 1


def test_copy_crosses_memory_twice(sim):
    host = Workstation(sim, SUN_4_280_RAID2)

    def body():
        yield from host.copy(7 * MB)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(2.0, rel=0.01)  # 14 MB over 7 MB/s


def test_dma_limited_by_memory_not_backplane(sim):
    """On the Sun 4/280 the 7 MB/s memory system is slower than the
    9 MB/s backplane, so DMA is memory-limited."""
    host = Workstation(sim, SUN_4_280_RAID2)

    def body():
        yield from host.dma_in(7 * MB)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(1.0, rel=0.01)


def test_raid1_host_has_higher_per_io_cost():
    assert SUN_4_280_RAID1.per_io_cpu_s > SUN_4_280_RAID2.per_io_cpu_s


def test_sparcstation_copy_rate_matches_section_3_4():
    """Three memory passes (two copies DMA+user) ≈ 3.2 MB/s delivered."""
    assert SPARCSTATION_10_51.memory_copy_rate_mb_s / 3 == pytest.approx(
        3.2, abs=0.2)


def test_negative_cpu_work_rejected(sim):
    host = Workstation(sim, SUN_4_280_RAID2)

    def body():
        yield from host.cpu_work(-1)

    with pytest.raises(HardwareError):
        sim.run_process(body())


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------

def test_cache_put_get():
    cache = LruBlockCache(capacity_bytes=1024)
    cache.put("a", b"x" * 100)
    assert cache.get("a") == b"x" * 100
    assert cache.hits == 1
    assert cache.get("missing") is None
    assert cache.misses == 1


def test_cache_evicts_lru():
    cache = LruBlockCache(capacity_bytes=300)
    cache.put("a", b"x" * 100)
    cache.put("b", b"y" * 100)
    cache.put("c", b"z" * 100)
    cache.get("a")  # touch a; b becomes LRU
    cache.put("d", b"w" * 100)
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.evictions == 1


def test_cache_update_replaces_bytes():
    cache = LruBlockCache(capacity_bytes=300)
    cache.put("a", b"x" * 100)
    cache.put("a", b"y" * 200)
    assert cache.used_bytes == 200
    assert cache.get("a") == b"y" * 200


def test_cache_invalidate_and_clear():
    cache = LruBlockCache(capacity_bytes=300)
    cache.put("a", b"x" * 100)
    cache.invalidate("a")
    assert cache.used_bytes == 0
    cache.invalidate("a")  # idempotent
    cache.put("b", b"y" * 100)
    cache.clear()
    assert len(cache) == 0


def test_cache_oversized_entry_rejected():
    cache = LruBlockCache(capacity_bytes=100)
    with pytest.raises(HardwareError):
        cache.put("big", b"x" * 101)


def test_cache_contains_does_not_touch_stats():
    cache = LruBlockCache(capacity_bytes=100)
    cache.put("a", b"x")
    assert cache.contains("a")
    assert not cache.contains("b")
    assert cache.hits == 0
    assert cache.misses == 0


def test_cache_hit_rate():
    cache = LruBlockCache(capacity_bytes=100)
    assert cache.hit_rate == 0.0
    cache.put("a", b"x")
    cache.get("a")
    cache.get("nope")
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_bad_capacity():
    with pytest.raises(HardwareError):
        LruBlockCache(capacity_bytes=0)
