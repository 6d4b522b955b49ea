"""Run experiments from the command line.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig5 table2 ...     # quick runs
    python -m repro.experiments --full fig8         # full-resolution
    python -m repro.experiments all
    python -m repro.experiments --trace out.json fig5   # Perfetto trace
    python -m repro.experiments --metrics table2        # registry dump

``--trace FILE`` records sim-time spans for a single experiment and
writes a Chrome ``trace_event`` JSON file loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``; a per-layer
breakdown table is printed alongside.  ``--metrics`` prints each run's
metrics-registry snapshot after the experiment's own report.
"""

from __future__ import annotations

import sys

from repro.experiments import (ablations, fig5_degraded, fig5_hw_throughput,
                               fig6_hippi_loopback, fig7_string_scaling,
                               fig8_lfs_throughput, network_clients,
                               raid1_baseline, rebuild_under_load,
                               recovery_time, table1_peak_sequential,
                               table2_small_io, vme_ports, zebra_scaling)
from repro.obs import (chrome_trace_json, observe, render_layer_breakdown,
                       render_metrics_snapshot)

REGISTRY = {
    "fig5": fig5_hw_throughput.run,
    "fig6": fig6_hippi_loopback.run,
    "fig7": fig7_string_scaling.run,
    "fig8": fig8_lfs_throughput.run,
    "table1": table1_peak_sequential.run,
    "table2": table2_small_io.run,
    "raid1-baseline": raid1_baseline.run,
    "vme-ports": vme_ports.run,
    "netclient": network_clients.run,
    "recovery-time": recovery_time.run,
    "fig5-degraded": fig5_degraded.run,
    "rebuild-under-load": rebuild_under_load.run,
    "zebra": zebra_scaling.run,
    "ablation-datapath": ablations.run_datapath,
    "ablation-lfs-vs-ffs": ablations.run_lfs_vs_ffs,
    "ablation-scaling": ablations.run_scaling,
    "ablation-raid3": ablations.run_raid3,
    "ablation-cleaner": ablations.run_cleaner,
}


def _parse(argv: list[str]):
    """Split argv into (names, quick, trace_path, want_metrics)."""
    names: list[str] = []
    quick = True
    trace_path = None
    want_metrics = False
    position = 0
    while position < len(argv):
        arg = argv[position]
        if arg == "--full":
            quick = False
        elif arg == "--metrics":
            want_metrics = True
        elif arg == "--trace":
            position += 1
            if position >= len(argv):
                raise ValueError("--trace needs an output path")
            trace_path = argv[position]
        elif arg.startswith("--trace="):
            trace_path = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            raise ValueError(f"unknown option {arg!r}")
        else:
            names.append(arg)
        position += 1
    return names, quick, trace_path, want_metrics


def main(argv: list[str]) -> int:
    try:
        args, quick, trace_path, want_metrics = _parse(argv)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    if not args or args == ["list"]:
        print("available experiments:")
        for name in REGISTRY:
            print(f"  {name}")
        print("\nusage: python -m repro.experiments [--full] "
              "[--trace out.json] [--metrics] <name>... | all | list")
        return 0
    names = list(REGISTRY) if args == ["all"] else args
    if trace_path is not None and len(names) != 1:
        print("--trace records one experiment at a time; "
              f"got {len(names)} names", file=sys.stderr)
        return 2
    for name in names:
        runner = REGISTRY.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
        if trace_path is None and not want_metrics:
            # A session keeps every component its runs built alive, so
            # open one only when its spans or metrics are printed.
            result = runner(quick=quick)
        else:
            with observe(trace=trace_path is not None) as session:
                result = runner(quick=quick)
            result.metrics = session.metrics_snapshot()
        print(result.render())
        if trace_path is not None:
            with open(trace_path, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(session))
            nspans = sum(len(tracer.finished)
                         for tracer in session.tracers)
            print(f"\nwrote {nspans} spans to {trace_path} "
                  "(load in https://ui.perfetto.dev)")
            print(render_layer_breakdown(session))
        if want_metrics:
            print()
            print(render_metrics_snapshot(result.metrics))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
