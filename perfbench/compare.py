#!/usr/bin/env python3
"""A/B comparison of two benchmark result sets.

Make the result sets with alternating runs of the same benchmark code
against two trees (e.g. the parent commit checked out in a
``git worktree`` and the change)::

    python3 perfbench/compare.py run --parent ../parent --child . \
        --workload hw-random --pairs 10 --out ab

writes ``ab-parent.jsonl`` and ``ab-child.jsonl`` (one ``run.py
--record`` line per run; the side that runs first alternates).  Then::

    python3 perfbench/compare.py report ab-parent.jsonl ab-child.jsonl

prints, per workload and metric, both sides' median and quartiles, the
child's win fraction over the pairs and a verdict, following the
choosing-metrics rules:

* ``improved``   the child wins >= 90% of pairs (ties count for
  neither) and the medians differ by more than the parent's own
  quartile spread;
* ``unresolved`` the parent's quartile spread is wider than the
  metric's bound, unless every child run beats every parent run;
* ``worse``      the child's median is worse than the parent's by more
  than the bound in ``BENCHMARK.json``;
* ``unchanged``  otherwise.

Simulated metrics and ``sim_digest`` are deterministic: for a host-only
change they must be identical per seed, and the report says when not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench.stats import quartiles  # noqa: E402

WIN_FRACTION = 0.9


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def load_spec() -> dict:
    """The benchmark's own BENCHMARK.json."""
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def verdict(parent: list[float], child: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, child win fraction) for one metric of one workload."""
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    pairs = list(zip(parent, child))
    wins = sum(1 for p, c in pairs if beats(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _c_q1, c_med, _c_q3 = quartiles(child)
    spread = p_q3 - p_q1
    if win_frac >= WIN_FRACTION and abs(c_med - p_med) > spread \
            and beats(c_med, p_med):
        return "improved", win_frac
    all_better = all(beats(c, p) for c in child for p in parent)
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved", win_frac
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if p_med and worse_by / abs(p_med) > bound:
        return "worse", win_frac
    return "unchanged", win_frac


def report(parent_path: Path, child_path: Path, as_json: bool) -> int:
    parent, child = load(parent_path), load(child_path)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in load_spec()["end_to_end"]}
    rows = []
    workloads = sorted({r["workload"] for r in parent + child})
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in child if r["workload"] == workload]
        digests = {}
        for side, runs in (("parent", p_runs), ("child", c_runs)):
            for run in runs:
                digests.setdefault(run["seed"], {})[side] = run["sim_digest"]
        sim_changed = sorted(seed for seed, d in digests.items()
                             if len(set(d.values())) > 1)
        names = sorted({name for run in p_runs + c_runs
                        for name in run["metrics"]})
        for name in names:
            p_vals = [r["metrics"][name]["value"] for r in p_runs
                      if name in r["metrics"]]
            c_vals = [r["metrics"][name]["value"] for r in c_runs
                      if name in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            if name in bounds:
                better, bound = bounds[name]
                call, win_frac = verdict(p_vals, c_vals, better, bound)
            else:
                call, win_frac = "n/a", float("nan")
            rows.append({
                "workload": workload, "metric": name,
                "unit": p_runs[0]["metrics"][name]["unit"],
                "parent": quartiles(p_vals), "child": quartiles(c_vals),
                "pairs": min(len(p_vals), len(c_vals)),
                "child_win_frac": win_frac, "verdict": call,
                "sim_digest_changed_seeds": sim_changed,
            })
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    for workload in workloads:
        mine = [row for row in rows if row["workload"] == workload]
        changed = mine[0]["sim_digest_changed_seeds"] if mine else []
        print(f"## {workload}: sim_digest "
              + (f"DIFFERS on seeds {changed}" if changed
                 else "identical on every shared seed"))
        print(f"{'metric':<32} {'parent q1/med/q3':>28} "
              f"{'child q1/med/q3':>28} {'win':>5} verdict")
        for row in mine:
            p = "/".join(f"{v:.4g}" for v in row["parent"])
            c = "/".join(f"{v:.4g}" for v in row["child"])
            print(f"{row['metric']:<32} {p:>28} {c:>28} "
                  f"{row['child_win_frac']:>5.2f} {row['verdict']}")
    return 0


def run_pairs(args) -> int:
    """Alternate runs of this benchmark against the parent and child trees."""
    runner = BENCH_DIR / "run.py"
    seconds = load_spec()["run_seconds"]
    sides = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    for pair in range(args.pairs):
        order = ("parent", "child") if pair % 2 == 0 else ("child", "parent")
        for side in order:
            out = Path(f"{args.out}-{side}.jsonl").resolve()
            command = [sys.executable, str(runner), "--workload",
                       args.workload, "--seed", str(args.seed + pair),
                       "--seconds", str(seconds), "--trace", "0",
                       "--record", str(out)]
            # The tree under test is the working directory's src/.
            subprocess.run(command, cwd=sides[side], check=True,
                           stdout=subprocess.DEVNULL)
            print(f"pair {pair + 1}/{args.pairs}: {side} done", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="compare two --record files")
    rep.add_argument("parent", type=Path)
    rep.add_argument("child", type=Path)
    rep.add_argument("--json", action="store_true")
    run = sub.add_parser("run", help="alternate runs on two trees")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--child", type=Path, required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", default="ab")
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.parent, args.child, args.json)
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
