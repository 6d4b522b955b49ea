"""The benchmark's own tests: the oracle bites, runs are deterministic.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py``
from the root of the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.catalog import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.compare import verdict  # noqa: E402
from perfbench.core import run_round, stretches, typical_s  # noqa: E402
from perfbench.layers import Instrument  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Request counts small enough for a test, large enough to cover the
#: interesting steps (the disk death and rebuild, cleaning, recovery).
TINY = {"hw-random": 16, "lfs-mixed": 150, "degraded-rebuild": 80,
        "crash-recovery": 6}


def _round(name: str, **kwargs):
    return run_round(WORKLOADS[name], 3, ops=TINY[name], **kwargs)


def test_oracle_catches_one_corrupt_sector():
    def corrupt(workload):
        disk = workload.raid.paths[0].disk
        disk.poke(0, bytes(b ^ 0xFF for b in disk.peek(0, 1)))

    clean = _round("hw-random")
    assert clean.failed == 0
    broken = _round("hw-random", corrupt=corrupt)
    assert broken.failed > 0
    assert broken.failed / broken.attempted > 0
    assert any("read-back" in f for f in broken.findings)
    assert any("scrub" in f for f in broken.findings)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_digest_and_no_failures(name):
    first, second = _round(name), _round(name)
    assert first.failed == 0, first.findings
    assert first.digest == second.digest
    assert first.sim == second.sim


def test_another_seed_gives_another_digest():
    assert _round("lfs-mixed").digest != run_round(
        WORKLOADS["lfs-mixed"], 4, ops=TINY["lfs-mixed"]).digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_profiled_rounds_match_the_plain_round(name):
    plain = _round(name)
    with Instrument() as instrument:
        traced = _round(name, instrument=instrument)
    profiled = _round(name, profile=True)
    assert traced.digest == plain.digest
    assert profiled.digest == plain.digest
    assert instrument.events > 0
    shares = [v for k, v in profiled.layers.items() if k.endswith(".host_frac")]
    assert abs(sum(shares) - 1.0) < 0.02
    computed_in_run = {"sim.events", "sim.host_ns_per_event",
                       "trace.overhead_frac", "sim_rebuild_s",
                       "sim_recovery_s", "sim_fsck_s"}
    reported = set(traced.layers) | set(profiled.layers) | computed_in_run
    assert {metric for metric, *_rest in PER_LAYER} <= reported


def test_degraded_rebuild_really_degrades_and_rebuilds():
    with Instrument() as instrument:
        result = _round("degraded-rebuild", instrument=instrument)
    assert result.layers["faults.disk_deaths"] == 1
    assert result.layers["raid.degraded_reads"] > 0
    assert result.layers["raid.rebuilt_rows"] == 64
    assert result.sim["sim_rebuild_s"] > 0


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == [(name, unit, better) for name, unit, better, _det in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_cli_refuses_a_tree_without_the_stack(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hw-random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_typical_time_ignores_a_burst_in_one_round():
    marks = [0.0, 1.0, 2.0, 3.0, 4.0]
    assert stretches(marks, count=2) == [2.0, 2.0]
    assert stretches(marks, count=8) == [1.0] * 4
    rounds = [[1.0, 1.0, 1.0, 1.0], [1.0, 5.0, 1.0, 1.0],
              [1.0, 1.0, 1.0, 9.0]]
    assert typical_s(rounds) == pytest.approx(4.0)


def test_rounds_of_a_seed_cut_into_equal_stretches():
    first, second = _round("crash-recovery"), _round("crash-recovery")
    for phase in ("setup_stretches", "host_stretches"):
        assert len(getattr(first, phase)) == len(getattr(second, phase)) > 1
    assert sum(first.host_stretches) == pytest.approx(first.host_s)
    assert sum(first.setup_stretches) == pytest.approx(first.setup_s)


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert verdict(parent, slower, "lower", 0.1)[0] == "worse"
    assert verdict(parent, parent, "lower", 0.1)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
