"""The metric catalogue; ``BENCHMARK.json`` must list the same metrics.

End-to-end metrics: (name, unit, better, deterministic).  Deterministic
metrics are simulated: for one seed they are bit-identical on every
run and every host, and a host-only speed-up must leave them so.

Per-layer metrics: (name, unit, better).  They carry no bound; the
direction says which way an optimization of that layer should push
them.  See README.md for what each one should move and on which
workload.
"""

from __future__ import annotations

from perfbench.layers import LAYERS

END_TO_END = (
    ("host_s", "s", "lower", False),
    ("setup_s", "s", "lower", False),
    ("host_peak_rss_mib", "MiB", "lower", False),
    ("sim_mb_s", "MB/s", "higher", True),
    ("sim_read_p50_ms", "ms", "lower", True),
    ("sim_read_tail_ms", "ms", "lower", True),
    ("sim_write_p50_ms", "ms", "lower", True),
    ("sim_write_tail_ms", "ms", "lower", True),
)

PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("disk.ops", "count", "lower"),
    ("disk.bytes_read", "B", "lower"),
    ("disk.bytes_written", "B", "lower"),
    ("disk.busy_frac", "frac", "higher"),
    ("disk.wait_s", "s", "lower"),
    ("cougar.contention_events", "count", "lower"),
    ("cougar.retries", "count", "lower"),
    ("scsi.busy_frac", "frac", "lower"),
    ("parity.blocks_xored", "count", "lower"),
    ("parity.sim_s", "s", "lower"),
    ("vme.control_busy_frac", "frac", "lower"),
    ("hippi.busy_frac", "frac", "lower"),
    ("ethernet.busy_frac", "frac", "lower"),
    ("ultranet.rpcs", "count", "lower"),
    ("raid.disk_ops_per_op", "ratio", "lower"),
    ("raid.disk_bytes_per_byte", "ratio", "lower"),
    ("raid.degraded_reads", "count", "lower"),
    ("raid.degraded_writes", "count", "lower"),
    ("raid.rebuilt_rows", "count", "higher"),
    ("raid.rebuild_row_ms", "ms", "lower"),
    ("lfs.device_bytes_per_user_byte", "ratio", "lower"),
    ("lfs.readahead_hit_frac", "frac", "higher"),
    ("lfs.segments_cleaned", "count", "lower"),
    ("lfs.clean_sim_s", "s", "lower"),
    ("lfs.mount_disk_ops", "count", "lower"),
    ("hostcache.hit_frac", "frac", "higher"),
    ("hostcache.evictions", "count", "lower"),
    ("ffs.data_writes", "count", "lower"),
    ("ffs.fsck_disk_ops", "count", "lower"),
    ("faults.disk_deaths", "count", "lower"),
    ("sim_rebuild_s", "s", "lower"),
    ("sim_recovery_s", "s", "lower"),
    ("sim_fsck_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
) + tuple((f"{layer}.host_frac", "frac", "lower") for layer in LAYERS)

UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}
