#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, parent and change.

    python3 scripts/pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S \
        --pairs N

Runs the benchmark command of PARENT_DIR/BENCHMARK.json (python3
perfbench/run.py) N times in each checkout, from its root, with the given
workload and seed, alternating which side runs first: the parent in even
pairs, the change in odd ones.  It stops with exit status 1 unless every run
is correct with 0 failed tasks.  Each run's end-to-end metrics are printed
as they come, then one row per end-to-end metric of BENCHMARK.json: the
median of each side, the parent's quartiles, the pairs the change won
(ties count for neither) and a verdict against the metric's bound, read as
a fraction of the parent's median.  The verdict is "worse" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's quartiles lie further apart than the bound
and some run of the change is no better than some run of the parent, and
"ok" otherwise.  Nothing is written to disk.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, command, workload, seed):
    """The metrics of one benchmark run in checkout, as {name: value}."""
    cmd = [*command, "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        sys.exit(f"pairs: {' '.join(cmd)} failed in {checkout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr)
        sys.exit(f"pairs: run in {checkout} is not correct "
                 f"({result['failed']} of {result['attempted']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, bound, lower):
    """The verdict on the runs of one metric: worse, unresolved or ok."""
    sign = 1 if lower else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    q1, q3 = quartiles(parent)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if q3 - q1 > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "ok"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            got = run(getattr(args, side), bench["command"], args.workload,
                      args.seed)
            runs[side].append(got)
            print(f"pair {i + 1} {side}: " + " ".join(
                f"{m['name']}={got[m['name']]:.4g}" for m in metrics),
                flush=True)

    print(f"\nworkload {args.workload} seed {args.seed}, "
          f"{args.pairs} pairs")
    print(f"{'metric':<12} {'parent':>10} {'change':>10} {'parent q1':>10} "
          f"{'parent q3':>10} {'won':>6} {'bound':>6}  verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        print(f"{name:<12} {statistics.median(parent):>10.4g} "
              f"{statistics.median(change):>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{won:>3}/{args.pairs:<2} {m['bound']:>6}  "
              f"{verdict(parent, change, m['bound'], lower)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
