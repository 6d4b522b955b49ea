"""Unit tests for units helpers, server configs, Ultranet and the CLI."""

import pytest

from repro.hw.xbus_board import XbusConfig
from repro.net import UltranetLink
from repro.server import Raid2Config
from repro.sim import Simulator
from repro.units import (GB, KB, KIB, MB, MIB, MS, SECTOR_SIZE, ios_per_s,
                         mb_per_s, transfer_time)


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_unit_constants():
    assert KB == 1000 and MB == 10 ** 6 and GB == 10 ** 9
    assert KIB == 1024 and MIB == 1024 ** 2
    assert SECTOR_SIZE == 512
    assert MS == 1e-3


def test_mb_per_s():
    assert mb_per_s(10 * MB, 2.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        mb_per_s(1, 0.0)


def test_ios_per_s():
    assert ios_per_s(100, 4.0) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        ios_per_s(1, -1.0)


def test_transfer_time():
    assert transfer_time(10 * MB, 10.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        transfer_time(1, 0.0)


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

def test_xbus_config_disk_totals():
    assert XbusConfig().total_disks == 24
    assert XbusConfig(control_cougar=True).total_disks == 30
    assert XbusConfig(disks_per_string=2).total_disks == 16


def test_raid2_config_presets():
    assert Raid2Config.paper_default().xbus.total_disks == 24
    assert Raid2Config.table1_sequential().xbus.control_cougar
    assert Raid2Config.table2_small_io(15).disks_used == 15
    assert Raid2Config.fig8_lfs().xbus.total_disks == 16


def test_lfs_spec_matches_paper_numbers():
    config = Raid2Config.paper_default()
    assert config.lfs.segment_bytes == 960 * KIB
    assert config.stripe_unit_bytes == 64 * KIB


# ---------------------------------------------------------------------------
# Ultranet
# ---------------------------------------------------------------------------

def test_ultranet_rpc_round_trip_latency():
    sim = Simulator()
    link = UltranetLink(sim)

    def body():
        yield from link.rpc()
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(2 * UltranetLink.CONTROL_LATENCY_S)
    assert link.rpcs == 1


def test_ultranet_data_rate():
    sim = Simulator()
    link = UltranetLink(sim, rate_mb_s=100.0)

    def body():
        yield from link.data(100 * MB)
        return sim.now

    assert sim.run_process(body()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# experiments CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig5" in out and "zebra" in out


def test_cli_unknown_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["no-such-thing"]) == 2


def test_cli_runs_an_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["vme-ports"]) == 0
    out = capsys.readouterr().out
    assert "vme_read_mb_s" in out


def test_registry_covers_every_table_and_figure():
    from repro.experiments.__main__ import REGISTRY

    for required in ("fig5", "fig6", "fig7", "fig8", "table1", "table2"):
        assert required in REGISTRY
