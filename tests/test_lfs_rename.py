"""Tests for LFS rename semantics."""

import dataclasses

import pytest

from repro.errors import (FileExistsFsError, FileNotFoundFsError,
                          FileSystemError)
from repro.hw.specs import LFS_SPEC
from repro.lfs import LogStructuredFS
from repro.sim import Simulator
from repro.testing import MemoryDevice
from repro.units import KIB, MIB

FAST_SPEC = dataclasses.replace(LFS_SPEC, segment_bytes=128 * KIB,
                                fs_overhead_s=0.0, small_write_overhead_s=0.0)


@pytest.fixture
def setup():
    sim = Simulator()
    device = MemoryDevice(sim, 8 * MIB)
    fs = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=64)
    sim.run_process(fs.format())
    return sim, device, fs


def test_rename_within_directory(setup):
    sim, _device, fs = setup
    sim.run_process(fs.create("/old"))
    sim.run_process(fs.write("/old", 0, b"contents"))
    sim.run_process(fs.rename("/old", "/new"))
    assert sim.run_process(fs.exists("/old")) is False
    assert sim.run_process(fs.read("/new", 0, 8)) == b"contents"


def test_rename_across_directories(setup):
    sim, _device, fs = setup
    sim.run_process(fs.mkdir("/a"))
    sim.run_process(fs.mkdir("/b"))
    sim.run_process(fs.create("/a/f"))
    sim.run_process(fs.write("/a/f", 0, b"moved"))
    sim.run_process(fs.rename("/a/f", "/b/g"))
    assert sim.run_process(fs.readdir("/a")) == {}
    assert sim.run_process(fs.read("/b/g", 0, 5)) == b"moved"


def test_rename_preserves_inode(setup):
    sim, _device, fs = setup
    sim.run_process(fs.create("/f"))
    before = sim.run_process(fs.stat("/f")).ino
    sim.run_process(fs.rename("/f", "/g"))
    assert sim.run_process(fs.stat("/g")).ino == before


def test_rename_replaces_existing_file(setup):
    sim, _device, fs = setup
    sim.run_process(fs.create("/src"))
    sim.run_process(fs.write("/src", 0, b"winner"))
    sim.run_process(fs.create("/dst"))
    sim.run_process(fs.write("/dst", 0, b"loser"))
    sim.run_process(fs.rename("/src", "/dst"))
    assert sim.run_process(fs.exists("/src")) is False
    assert sim.run_process(fs.read("/dst", 0, 6)) == b"winner"


def test_rename_directory(setup):
    sim, _device, fs = setup
    sim.run_process(fs.mkdir("/dir"))
    sim.run_process(fs.create("/dir/child"))
    sim.run_process(fs.rename("/dir", "/renamed"))
    entries = sim.run_process(fs.readdir("/renamed"))
    assert "child" in entries


def test_rename_directory_into_itself_rejected(setup):
    sim, _device, fs = setup
    sim.run_process(fs.mkdir("/dir"))
    with pytest.raises(FileSystemError):
        sim.run_process(fs.rename("/dir", "/dir/sub"))


def test_rename_onto_directory_rejected(setup):
    sim, _device, fs = setup
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.mkdir("/d"))
    with pytest.raises(FileExistsFsError):
        sim.run_process(fs.rename("/f", "/d"))


def test_rename_missing_source_rejected(setup):
    sim, _device, fs = setup
    with pytest.raises(FileNotFoundFsError):
        sim.run_process(fs.rename("/ghost", "/new"))


def test_rename_onto_itself_is_noop(setup):
    sim, _device, fs = setup
    sim.run_process(fs.create("/f"))
    sim.run_process(fs.write("/f", 0, b"same"))
    sim.run_process(fs.rename("/f", "/f"))
    assert sim.run_process(fs.read("/f", 0, 4)) == b"same"


def test_rename_survives_crash_after_sync(setup):
    sim, device, fs = setup
    sim.run_process(fs.create("/before"))
    sim.run_process(fs.write("/before", 0, b"data"))
    sim.run_process(fs.checkpoint())
    sim.run_process(fs.rename("/before", "/after"))
    sim.run_process(fs.sync())
    fs.crash()

    fs2 = LogStructuredFS(sim, device, spec=FAST_SPEC, max_inodes=64)
    sim.run_process(fs2.mount())
    assert sim.run_process(fs2.exists("/before")) is False
    assert sim.run_process(fs2.read("/after", 0, 4)) == b"data"
