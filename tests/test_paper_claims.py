"""The paper's claims, gated in tier-1.

Every experiment in the CLI registry runs in quick mode and is checked
against its row of ``CLAIMS``: the *shape* of the paper's result (who
wins, by roughly what factor), not exact numbers.  A claim is a Python
expression over the result's scalars, by name, and two series helpers:
``ys("series")`` is a series' y values in the order measured and
``y_at("series", x)`` its y value at ``x``.

Full-resolution runs (``python -m repro.experiments --full <id>``) are
not asserted.
"""

import pytest

from repro.experiments.__main__ import REGISTRY

CLAIMS = {
    # Figure 5: hardware system level random read/write throughput.
    "fig5": [
        # Plateau near the paper's ~20 MB/s for reads.
        "16 < read_plateau_mb_s < 26",
        # Writes land below reads but in the same order of magnitude.
        "10 < write_plateau_mb_s < 22",
        "write_plateau_mb_s < read_plateau_mb_s",
        # Throughput grows with request size (amortized positioning costs).
        "ys('random reads')[0] < ys('random reads')[-1] / 4",
        "ys('random writes')[0] < ys('random writes')[-1] / 4",
    ],
    # Figure 6: HIPPI loopback throughput vs transfer size.
    "fig6": [
        # Paper: 38.5 MB/s in each direction at large transfers.
        "36 < loopback_plateau_mb_s < 39.5",
        # Small transfers dominated by the ~1.1 ms setup overhead.
        "0.8 < packet_overhead_ms < 1.5",
        "ys('loopback throughput')[0] < ys('loopback throughput')[-1] / 3",
        # Monotone in transfer size.
        "ys('loopback throughput') == sorted(ys('loopback throughput'))",
    ],
    # Figure 7: disk read performance vs disks on one SCSI string.
    "fig7": [
        # One disk runs at its own ~2 MB/s; the string ceiling is ~3 MB/s.
        "1.8 < single_disk_mb_s < 2.3",
        "2.7 < string_plateau_mb_s < 3.5",
        "len(ys('measured')) == 5",
        "ys('measured')[0] < ys('measured')[-1]",
        # Saturation: 3, 4 and 5 disks all deliver the same string-bound
        # rate, well short of linear scaling.
        "abs(y_at('measured', 5) - y_at('measured', 3)) < 0.2",
        "y_at('measured', 5) < 0.5 * y_at('linear scaling (dashed)', 5)",
    ],
    # Figure 8: LFS on RAID-II, random read/write bandwidth.
    "fig8": [
        # Paper: reads up to ~20-21 MB/s, writes plateau near 15 MB/s.
        "16 < read_plateau_mb_s < 26",
        "8 < write_plateau_mb_s < 18",
        # The headline LFS result: small random writes BEAT small random
        # reads, because the log absorbs them into sequential segments.
        "small_write_over_small_read > 1.2",
    ],
    # Table 1: peak sequential read/write bandwidth.
    "table1": [
        # Paper: 31 read / 23 write.  Shape: both tens of MB/s, reads
        # ahead by roughly the paper's 1.35x.
        "24 < sequential_read_mb_s < 34",
        "15 < sequential_write_mb_s < 26",
        "1.15 < sequential_read_mb_s / sequential_write_mb_s < 1.75",
    ],
    # Table 2: 4 KB random read I/O rates, RAID-I vs RAID-II.
    "table2": [
        # Paper: RAID-II ~400 IO/s vs RAID-I ~275 on fifteen disks.
        "330 < raid2_15disk_ios < 470",
        "230 < raid1_15disk_ios < 320",
        "raid2_15disk_ios > raid1_15disk_ios",
        # Faster drives: the RAID-II single disk beats the RAID-I one.
        "raid2_1disk_ios > raid1_1disk_ios",
        # Both deliver a substantial fraction of their potential.
        "0.5 < raid2_delivered_fraction <= 1.0",
        "0.5 < raid1_delivered_fraction <= 1.0",
    ],
    # Section 1: the RAID-I baseline and the order-of-magnitude claim.
    "raid1-baseline": [
        # The famous ceiling: at best ~2.3 MB/s to a user application.
        "2.0 < raid1_app_read_mb_s < 2.6",
        # One disk sustains ~1.3 MB/s, so nearly 26 of 28 disks are wasted.
        "1.1 < raid1_single_disk_mb_s < 1.5",
        "24 < raid1_wasted_disks_of_28 < 27.5",
        # RAID-II delivers an order of magnitude more.
        "improvement_factor > 7",
    ],
    # Section 2.3: VME data-port sustained read/write rates.
    "vme-ports": [
        # Paper: 6.9 MB/s reads, 5.9 MB/s writes.
        "6.4 < vme_read_mb_s < 7.0",
        "5.4 < vme_write_mb_s < 6.1",
        "vme_read_mb_s > vme_write_mb_s",
    ],
    # Section 3.4: single SPARCstation client read/write over the Ultranet.
    "netclient": [
        # Paper: 3.2 MB/s reads, 3.1 MB/s writes — client-limited.
        "2.2 < client_read_mb_s < 4.2",
        "2.2 < client_write_mb_s < 4.2",
        # Host CPU utilization "close to zero" during client writes.
        "host_cpu_util_during_writes < 0.1",
        # The server scales past one client: three writers in aggregate
        # deliver well above a single client's rate.
        "aggregate_write_3_clients_mb_s > 1.8 * client_write_mb_s",
    ],
    # Section 3.1: LFS crash check vs UNIX-style fsck.
    "recovery-time": [
        # The paper's qualitative claim: orders of magnitude apart.
        "fsck_over_lfs > 10",
        # And the absolute regimes: seconds-ish vs many minutes at 1 GB.
        "lfs_extrapolated_1gb_s < 120",
        "fsck_extrapolated_1gb_min > 3",
    ],
    # Figure 5 with one disk dead: degraded reads, then a clean rebuild.
    "fig5-degraded": [
        "healthy_plateau_mb_s > 0",
        "0 < degraded_fraction <= 1.0",
        "degraded_reads_total > 0",
        "parity_clean_after_rebuild == 1.0",
    ],
    # A rebuild racing client reads.
    "rebuild-under-load": [
        "rebuild_idle_mb_s > 0",
        # Contention slows both sides; neither should stall outright.
        "0 < rebuild_slowdown_fraction <= 1.0",
        "0 < client_slowdown_fraction <= 1.0",
        "parity_clean_after_rebuild == 1.0",
    ],
    # Section 5.2 future work, built and measured: Zebra striping
    # across multiple RAID-II storage servers.
    "zebra": [
        # More servers, more bandwidth: the whole point of Zebra.
        "write_scaling_3_to_max > 1.5",
        "ys('log write bandwidth')[-1] > ys('log write bandwidth')[0]",
        # Surviving a server costs bandwidth but stays functional.
        "0.2 < degraded_read_fraction <= 1.0",
    ],
    # The high-bandwidth data path vs forcing data through the host:
    # the paper's core architectural argument.
    "ablation-datapath": [
        # Routed through the host, the server collapses to RAID-I-class
        # bandwidth (the ~2.3 MB/s memory-system ceiling).
        "through_host_mb_s < 4.0",
        "xbus_path_mb_s > 15.0",
        "speedup > 5.0",
    ],
    # LFS vs a traditional update-in-place FS for small writes on
    # RAID 5 (the four-access small-write penalty, Section 3.1).
    "ablation-lfs-vs-ffs": [
        # The traditional FS pays ~4 disk accesses per small write.
        "ffs_disk_ops_per_write > 3.0",
        # LFS batches them into segment writes: far fewer disk ops
        # each, and a large end-to-end speedup.
        "lfs_disk_ops_per_write < 1.5",
        "lfs_speedup > 3.0",
    ],
    # Server bandwidth scaling with additional XBUS boards (Section 2.1.2).
    "ablation-scaling": [
        # Each board adds bandwidth: four boards deliver at least ~3x one.
        "scaling_efficiency > 0.75",
        "y_at('aggregate bandwidth', 4) > 3 * y_at('aggregate bandwidth', 1) * 0.75",
        # The host CPU load grows with boards but stays far from
        # saturation (only control operations touch the host).
        "y_at('host CPU utilization', 4) < 0.5",
        "y_at('host CPU utilization', 4) > y_at('host CPU utilization', 1)",
    ],
    # RAID 5 vs RAID 3 under concurrent small reads: why RAID-II's
    # crossbar + Level 5 beats HPDS's Level 3 for small I/O (Section 4.2).
    "ablation-raid3": [
        # RAID 5 scales with concurrency; RAID 3 is one-at-a-time.
        "raid5_scaling_1_to_8 > 2.5",
        "raid3_scaling_1_to_8 < 1.5",
    ],
    # Segment-cleaner overhead on a fragmented log: the cost of the
    # piece the paper's prototype left unimplemented.
    "ablation-cleaner": [
        # Cleaning costs something but the log keeps flowing.
        "fragmented_with_cleaner_mb_s > 0",
        "0.0 <= cleaner_overhead_fraction < 0.9",
        "fragmented_with_cleaner_mb_s <= fresh_log_mb_s",
    ],
}


def test_every_registered_experiment_is_gated():
    assert sorted(CLAIMS) == sorted(REGISTRY)


@pytest.mark.parametrize("experiment_id", list(CLAIMS))
def test_paper_claims(experiment_id):
    result = REGISTRY[experiment_id](quick=True)
    assert result.experiment_id == experiment_id

    def ys(name):
        return [point.y for point in result.series_named(name).points]

    def y_at(name, x):
        return result.series_named(name).y_at(x)

    namespace = dict(result.scalars, ys=ys, y_at=y_at, abs=abs, len=len,
                     sorted=sorted, __builtins__={})
    failed = [claim for claim in CLAIMS[experiment_id]
              if not eval(claim, namespace)]
    assert not failed, f"{failed}\n{result.render()}"
