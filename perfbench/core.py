"""Rounds: one setup + measured phase + oracle, and the metrics of each.

A round builds a fresh stack, so every round of a run with one seed
does the same simulated work.  :func:`run_round` returns the host
timings, the simulated metrics and the round's ``sim_digest``; the
run-level code in ``run.py`` repeats rounds and reports medians.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.units import MB

from perfbench.layers import LAYERS, Instrument, host_shares
from perfbench.stats import Digest, percentile, tail
from perfbench.workloads import Workload

#: Workload step -> reported metric (per-layer, simulated seconds).
STEP_METRICS = {"rebuild": "sim_rebuild_s", "lfs_mount": "sim_recovery_s",
                "ffs_fsck": "sim_fsck_s"}
#: Stretches a round's setup and measured phase are each cut into.
STRETCHES = 64


@dataclass
class RoundResult:
    setup_s: float
    host_s: float
    digest: str
    attempted: int
    failed: int
    findings: list[str]
    #: Simulated metrics: deterministic for a given seed.
    sim: dict[str, float]
    #: Per kind: (tail percentile, samples beyond it, samples).
    tails: dict[str, tuple[float, int]]
    #: Host seconds of consecutive stretches of setup and of the
    #: measured phase, cut at the workload's marks (see ``stretches``).
    setup_stretches: list[float] = field(default_factory=list)
    host_stretches: list[float] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    table: list[dict] = field(default_factory=list)


def stretches(marks: list[float], count: int = STRETCHES) -> list[float]:
    """Cut the span of ``marks`` into at most ``count`` stretches of
    about equally many marks and return each stretch's host seconds.

    A seed always yields the same number of marks, so stretch ``i``
    covers the same simulated work in every round of a run.
    """
    last = len(marks) - 1
    cuts = sorted({round(index * last / count) for index in range(count + 1)})
    return [marks[end] - marks[begin] for begin, end in zip(cuts, cuts[1:])]


def typical_s(rounds: list[list[float]]) -> float:
    """Sum over stretches of each stretch's median time across rounds.

    A burst of interference on a shared host, or a spell in which it
    runs fast, rarely hits the same stretch in most rounds, so this sum
    moves less than the median (and far less than the minimum) of the
    rounds' totals.
    """
    return sum(statistics.median(times) for times in zip(*rounds))


def _latency_metrics(log) -> tuple[dict[str, float], dict]:
    metrics: dict[str, float] = {}
    tails = {}
    for kind, samples in (("read", log.read_latencies),
                          ("write", log.write_latencies)):
        if not samples:
            raise RuntimeError(f"workload recorded no {kind} latencies")
        value, pct, beyond = tail(samples)
        metrics[f"sim_{kind}_p50_ms"] = percentile(samples, 50) * 1e3
        metrics[f"sim_{kind}_tail_ms"] = value * 1e3
        tails[kind] = (pct, beyond, len(samples))
    return metrics, tails


def _digest(workload: Workload) -> str:
    digest = Digest()
    log = workload.log
    digest.floats(*log.read_latencies)
    digest.text("|")
    digest.floats(*log.write_latencies)
    digest.floats(*(sim.now for sim in workload.sims))
    for name in sorted(workload.steps):
        digest.text(name)
        digest.floats(workload.steps[name])
    workload.digest_state(digest)
    return digest.hexdigest()


def run_round(cls: type[Workload], seed: int, ops: Optional[int] = None,
              instrument: Optional[Instrument] = None,
              profile: bool = False, corrupt=None) -> RoundResult:
    """Run one round of ``cls``; see the module docstring.

    ``instrument`` must already be entered (its wrappers installed) so
    that the workload's own taps wrap the instrumented methods.
    ``corrupt(workload)``, when given, runs between the measured phase
    and the oracle; the tests use it to prove the oracle is not vacuous.
    """
    workload = cls(seed, ops)
    gc.collect()
    start = time.perf_counter()
    workload.marks = [start]
    workload.setup()
    workload.mark()
    setup_marks = workload.marks
    setup_s = setup_marks[-1] - start
    workload.plan()
    before = snapshot(workload) if instrument is not None else None
    profiler = cProfile.Profile() if profile else None
    gc.collect()
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    workload.marks = [start]
    workload.run()
    workload.mark()
    host_s = workload.marks[-1] - start
    if profiler is not None:
        profiler.disable()
    after = snapshot(workload) if instrument is not None else None
    digest = _digest(workload)
    if corrupt is not None:
        corrupt(workload)
    workload.verify()

    log = workload.log
    sim, tails = _latency_metrics(log)
    sim["sim_mb_s"] = log.bytes_moved / MB / workload.sim_elapsed_s
    for step, metric in STEP_METRICS.items():
        sim[metric] = workload.steps.get(step, 0.0)
    result = RoundResult(setup_s=setup_s, host_s=host_s, digest=digest,
                         attempted=log.attempted, failed=log.failed,
                         findings=list(log.findings), sim=sim, tails=tails,
                         setup_stretches=stretches(setup_marks),
                         host_stretches=stretches(workload.marks))
    if instrument is not None:
        result.layers = layer_metrics(workload, instrument, before, after)
        result.table = layer_table(workload, instrument)
    if profiler is not None:
        result.layers = {f"{layer}.host_frac": share for layer, share
                         in host_shares(profiler).items()}
    return result


# ----------------------------------------------------------------------
# public counters
# ----------------------------------------------------------------------
def snapshot(workload: Workload) -> dict[str, float]:
    """Sum the public counters of every component the workload exposes.

    Per-link busy times are kept per name (``busy:<name>``) so the
    busiest one can be picked from the deltas.
    """
    parts = workload.parts()
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for disk in parts.get("disks", []):
        add("disk.ops", disk.reads + disk.writes)
        add("disk.bytes_read", disk.bytes_read)
        add("disk.bytes_written", disk.bytes_written)
        add("disk.busy_s", disk.busy.busy_time)
        add("disk.count", 1)
    for string in parts.get("strings", []):
        add(f"busy:scsi:{string.name}", string.channel.busy_time)
    for cougar in parts.get("cougars", []):
        add("cougar.contention_events", cougar.contention_events)
        add("cougar.retries", cougar.retries)
    for board in parts.get("boards", []):
        add("parity.blocks_xored", board.parity_engine.blocks_xored)
        add("vme.control_busy_s", board.control_port.busy_time)
        for port in (board.hippi_source, board.hippi_dest):
            add(f"busy:hippi:{port.name}", port.channel.busy_time)
    for ether in parts.get("ethernets", []):
        add("ethernet.busy_s", ether.channel.busy_time)
    for link in parts.get("links", []):
        add("ultranet.rpcs", link.rpcs)
    for raid in parts.get("raids", []):
        add("raid.degraded_reads", raid.degraded_reads)
        add("raid.degraded_writes", raid.degraded_writes)
        registry = raid.sim.metrics.snapshot()
        add("raid.rebuilt_rows",
            registry.get(raid.name, {}).get("rebuilt_rows", {})
            .get("value", 0))
    for fs in parts.get("lfs", []):
        add("lfs.bytes_read", fs.bytes_read)
        add("lfs.readahead_hits", fs.readahead_hits)
        add("lfs.segments_cleaned", fs.segments_cleaned)
    for cache in parts.get("caches", []):
        add("hostcache.hits", cache.hits)
        add("hostcache.misses", cache.misses)
        add("hostcache.evictions", cache.evictions)
    for fs in parts.get("ffs", []):
        add("ffs.data_writes", fs.data_writes)
    for sim in workload.sims:
        registry = sim.metrics.snapshot()
        add("faults.disk_deaths", registry.get("faults", {})
            .get("disk_deaths", {}).get("value", 0))
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: Workload, instrument: Instrument,
                  before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics of the measured phase (see README.md)."""
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    elapsed = workload.sim_elapsed_s
    stats = instrument.stats

    def busiest(prefix: str) -> float:
        values = [v for k, v in delta.items() if k.startswith(prefix)]
        return _ratio(max(values, default=0.0), elapsed)

    disk_calls = stats["DiskDrive.read"].calls + stats["DiskDrive.write"].calls
    disk_bytes = (stats["DiskDrive.read"].nbytes
                  + stats["DiskDrive.write"].nbytes)
    raid_calls = (stats["Raid5Controller.read"].calls
                  + stats["Raid5Controller.write"].calls)
    raid_bytes = (stats["Raid5Controller.read"].nbytes
                  + stats["Raid5Controller.write"].nbytes)
    parts = workload.parts()
    lfs_user = sum(instrument.object_bytes("LogStructuredFS.write", fs)
                   for fs in parts.get("lfs", []))
    lfs_device = sum(instrument.object_bytes("Raid5Controller.write",
                                             fs.device)
                     for fs in parts.get("lfs", []))
    rebuilt = delta.get("raid.rebuilt_rows", 0)
    return {
        "sim.events": instrument.events,
        "disk.ops": delta.get("disk.ops", 0),
        "disk.bytes_read": delta.get("disk.bytes_read", 0),
        "disk.bytes_written": delta.get("disk.bytes_written", 0),
        "disk.busy_frac": _ratio(delta.get("disk.busy_s", 0.0),
                                 after.get("disk.count", 0) * elapsed),
        "disk.wait_s": (stats["DiskDrive.read"].sim_s
                        + stats["DiskDrive.write"].sim_s
                        - delta.get("disk.busy_s", 0.0)),
        "cougar.contention_events": delta.get("cougar.contention_events", 0),
        "cougar.retries": delta.get("cougar.retries", 0),
        "scsi.busy_frac": busiest("busy:scsi:"),
        "parity.blocks_xored": delta.get("parity.blocks_xored", 0),
        "parity.sim_s": stats["XbusBoard.compute_parity"].sim_s,
        "vme.control_busy_frac": _ratio(delta.get("vme.control_busy_s", 0.0),
                                        elapsed),
        "hippi.busy_frac": busiest("busy:hippi:"),
        "ethernet.busy_frac": _ratio(delta.get("ethernet.busy_s", 0.0),
                                     elapsed),
        "ultranet.rpcs": delta.get("ultranet.rpcs", 0),
        "raid.disk_ops_per_op": _ratio(disk_calls, raid_calls),
        "raid.disk_bytes_per_byte": _ratio(disk_bytes, raid_bytes),
        "raid.degraded_reads": delta.get("raid.degraded_reads", 0),
        "raid.degraded_writes": delta.get("raid.degraded_writes", 0),
        "raid.rebuilt_rows": rebuilt,
        "raid.rebuild_row_ms": _ratio(
            stats["Raid5Controller.rebuild"].sim_s * 1e3, rebuilt),
        "lfs.device_bytes_per_user_byte": _ratio(lfs_device, lfs_user),
        "lfs.readahead_hit_frac": _ratio(
            delta.get("lfs.readahead_hits", 0),
            delta.get("lfs.bytes_read", 0) / 4096),
        "lfs.segments_cleaned": delta.get("lfs.segments_cleaned", 0),
        "lfs.clean_sim_s": stats["LogStructuredFS.clean"].sim_s,
        "lfs.mount_disk_ops": stats["LogStructuredFS.mount"].disk_ops,
        "hostcache.hit_frac": _ratio(
            delta.get("hostcache.hits", 0),
            delta.get("hostcache.hits", 0) + delta.get("hostcache.misses", 0)),
        "hostcache.evictions": delta.get("hostcache.evictions", 0),
        "ffs.data_writes": delta.get("ffs.data_writes", 0),
        "ffs.fsck_disk_ops": stats["UpdateInPlaceFS.fsck"].disk_ops,
        "faults.disk_deaths": delta.get("faults.disk_deaths", 0),
    }


def layer_table(workload: Workload, instrument: Instrument) -> list[dict]:
    """Rows of the "where did the wall clock go" table (host share is
    filled in from the profiled round)."""
    user_bytes = workload.log.bytes_moved
    totals = instrument.layer_totals()
    rows = []
    for layer in LAYERS:
        total = totals.get(layer)
        rows.append({
            "layer": layer,
            "sim_s": total.sim_s if total else None,
            "calls": total.calls if total else None,
            "bytes": total.nbytes if total else None,
            "amplification": (_ratio(total.nbytes, user_bytes)
                              if total else None),
        })
    return rows
