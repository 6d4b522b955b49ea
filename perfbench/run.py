#!/usr/bin/env python3
"""Run one benchmark workload over the RAID-II stack and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hw-random --seed 1 --seconds 30 \
        --trace 0 [--record results.jsonl]

``--trace 0`` repeats plain rounds (setup + measured phase + oracle)
for about ``--seconds`` and reports every end-to-end metric: host
times as the sum over stretches of each stretch's median across rounds
(see ``core.typical_s``), simulated metrics from the rounds, which
must all carry the same ``sim_digest``.  ``--trace 1`` runs a plain
round, an instrumented round and a profiled round (then more
plain/instrumented pairs while time remains), checks that all three
kinds give the same ``sim_digest``, prints the "where did the wall
clock go?" table and writes it to ``perfbench/out/``.

The stack measured is ``src/`` under the working directory, so the
same benchmark code can measure another tree (see ``compare.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
exits 2 without a result when the working directory holds no
``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1
#: Seed kept out of tuning; a claimed gain is re-checked on it.
HELDOUT_SEED = 7919
MIN_ROUNDS = 3
MAX_ROUNDS = 50


def _import_stack() -> None:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} is missing; run from the root "
              "of a repository checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(BENCH_ROOT)]


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds_until(seconds: float, started: float, done: int) -> bool:
    """True while another round of average length fits in ``seconds``."""
    if done < MIN_ROUNDS:
        return True
    elapsed = time.perf_counter() - started
    return done < MAX_ROUNDS and elapsed + elapsed / done <= seconds


def _check_rounds(rounds, label: str) -> list[str]:
    digests = sorted({r.digest for r in rounds})
    if len(digests) > 1:
        return [f"{label}: rounds disagree on sim_digest: {digests}"]
    return []


def run_plain(cls, seed: int, seconds: float):
    from perfbench.core import run_round, typical_s

    started = time.perf_counter()
    rounds = []
    while _rounds_until(seconds, started, len(rounds)):
        rounds.append(run_round(cls, seed))
    problems = _check_rounds(rounds, "plain")
    first = rounds[0]
    metrics = {
        "host_s": typical_s([r.host_stretches for r in rounds]),
        "setup_s": typical_s([r.setup_stretches for r in rounds]),
        "host_peak_rss_mib": _peak_rss_mib(),
        **first.sim,
    }
    info = {
        "rounds": len(rounds),
        "host_s_rounds": [round(r.host_s, 4) for r in rounds],
        "setup_s_rounds": [round(r.setup_s, 4) for r in rounds],
    }
    return rounds, metrics, info, problems


def run_traced(cls, seed: int, seconds: float):
    from perfbench.core import STEP_METRICS, run_round, typical_s
    from perfbench.layers import Instrument

    started = time.perf_counter()
    plain = [run_round(cls, seed)]
    instrumented = []

    def instrumented_round():
        with Instrument() as instrument:
            result = run_round(cls, seed, instrument=instrument)
        result.layers["sim.events"] = instrument.events
        instrumented.append(result)

    instrumented_round()
    profiled = run_round(cls, seed, profile=True)
    while time.perf_counter() - started + 2 * plain[0].host_s \
            + 2 * plain[0].setup_s <= seconds and len(plain) < MAX_ROUNDS:
        plain.append(run_round(cls, seed))
        instrumented_round()
    rounds = plain + instrumented + [profiled]
    problems = _check_rounds(rounds, "plain/instrumented/profiled")

    plain_host = typical_s([r.host_stretches for r in plain])
    traced_host = typical_s([r.host_stretches for r in instrumented])
    layers = dict(instrumented[0].layers)
    layers.update(profiled.layers)
    events = layers["sim.events"]
    layers["sim.host_ns_per_event"] = (plain_host / events * 1e9
                                       if events else 0.0)
    layers["trace.overhead_frac"] = traced_host / plain_host - 1.0
    for name in STEP_METRICS.values():
        layers[name] = plain[0].sim[name]
    table = instrumented[0].table
    for row in table:
        row["host_share"] = profiled.layers[f"{row['layer']}.host_frac"]
    info = {"rounds": len(rounds), "plain_host_s": plain_host,
            "traced_host_s": traced_host, "table": table}
    return rounds, layers, info, problems


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_table(workload: str, table: list[dict]) -> None:
    print(f"# where did the wall clock go? ({workload}, profiled round; "
          "sim_s is inclusive simulated time summed over calls at the "
          "layer's entry points)")
    print(f"{'layer':<10} {'host_share':>10} {'sim_s':>10} {'calls':>9} "
          f"{'bytes':>13} {'amplif.':>8}")
    for row in sorted(table, key=lambda r: -r["host_share"]):
        print(f"{row['layer']:<10} {row['host_share']:>10.3f} "
              f"{_fmt(row['sim_s']):>10} {_fmt(row['calls']):>9} "
              f"{_fmt(row['bytes']):>13} {_fmt(row['amplification']):>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append this run's result as one JSON line")
    args = parser.parse_args(argv)
    _import_stack()
    from perfbench.catalog import END_TO_END, PER_LAYER, UNITS
    from perfbench.core import STEP_METRICS
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.trace:
        rounds, layers, info, problems = run_traced(cls, args.seed,
                                                    args.seconds)
        metrics = {name: layers[name] for name, *_rest in PER_LAYER}
    else:
        rounds, values, info, problems = run_plain(cls, args.seed,
                                                   args.seconds)
        metrics = {name: values[name] for name, *_rest in END_TO_END}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    first = rounds[0]
    print(f"# workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {info['rounds']}")
    print(f"sim_digest {first.digest}")
    print(f"failed_op_frac {failed / attempted:.6g}  "
          f"({failed} of {attempted} ops and checks)")
    for finding in (problems + first.findings)[:20]:
        print(f"FAILED: {finding}")
    if args.trace:
        print_table(args.workload, info["table"])
        OUT_DIR.mkdir(exist_ok=True)
        report = OUT_DIR / f"{args.workload}-seed{args.seed}-layers.json"
        report.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "sim_digest": first.digest, "table": info["table"],
             "metrics": metrics}, indent=2, sort_keys=True))
        print(f"# wrote {report}")
    else:
        for kind in ("read", "write"):
            pct, beyond, n = first.tails[kind]
            print(f"# sim_{kind}_tail_ms is p{pct:g}: {beyond} of {n} "
                  "samples beyond it")
        for name in STEP_METRICS.values():
            if values[name]:
                print(f"{name} {values[name]:.6g} s")
        print(f"# wall host_s per round {info['host_s_rounds']}")
        print(f"# wall setup_s per round {info['setup_s_rounds']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    if args.record is not None:
        with args.record.open("a") as record:
            record.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "sim_digest": first.digest,
                                     "host_s_rounds": [r.host_s for r in rounds],
                                     "setup_s_rounds": [r.setup_s
                                                        for r in rounds],
                                     **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
