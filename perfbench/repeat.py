"""Repeat benchmark runs over several seeds and summarise them.

    python3 perfbench/repeat.py --workload modal --seeds 1-10
    python3 perfbench/repeat.py --workload modal --seeds 1-10 \
        --baseline perfbench/baseline.json

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread, the quartile distance as a share of the median.  With --baseline it
also stores these figures, every run's values and the machine in that file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine():
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    return {"commit": sha or None, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": res["correct"],
                     "attempted": res["attempted"], "failed": res["failed"],
                     "values": {k: m["value"] for k, m in res["metrics"].items()}})
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v:.4g}" for k, v in runs[-1]["values"].items()),
              flush=True)

    stats = {}
    for name in runs[0]["values"]:
        stats[name] = summarise([r["values"][name] for r in runs])
        s = stats[name]
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name}: median {s['median']:.4g} q1 {s['q1']:.4g} "
              f"q3 {s['q3']:.4g} spread {spread}")

    if args.baseline:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc["machine"] = machine()
        key = args.workload if not args.trace else f"{args.workload}/trace"
        doc.setdefault("workloads", {})[key] = {
            "seconds": args.seconds, "seeds": args.seeds,
            "metrics": stats, "runs": runs}
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
