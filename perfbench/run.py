"""Benchmark of charform: one workload, one seed, one run.

    python3 perfbench/run.py --workload {corpus,validity,modal} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; the library is imported from
./src.  Everything runs in one process on one thread, as a closed loop with
one client: each task is issued when the previous one returns.  The task
list is fixed by the workload and the seed, and sized so that a run takes
about --seconds at the baseline; a run still busy after twice --seconds
stops, and the tasks it did not issue count as failed.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
first runs the same workload untraced in a child process, then again with
every traced library function wrapped (see tracing.py), and reports the
per-layer metrics and the tracing overhead; its spans go to
.bench_out/trace-<workload>-<size>-<seed>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A task fails when it raises, when its
verdict fails the workload's check, or, for a seed with a reference digest
in reference.json, when the run's digest of all verdicts differs from it.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5           # set-ups per run: this process plus four children
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
                    "task_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "validity", "modal"))
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the smoke-test instances")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="file holding the reference digests")
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time and exit (used for set-up samples)")
    return ap.parse_args(argv)


def load_workloads():
    src = ROOT / "src"
    if not (src / "charform" / "__init__.py").is_file():
        sys.exit(f"perfbench: no charform sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def child(args, *extra):
    """Run this script again with the same workload, seed and size."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", str(args.seconds),
           "--reference", str(args.reference), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit(f"perfbench: child run failed: {' '.join(extra)}")
    return out.stdout.strip().splitlines()[-1]


def run_tasks(tasks, deadline, tracer):
    """Issue each task when the previous one returns; time each call."""
    done = []
    latencies = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if time.perf_counter() > start + deadline:
            break
        if tracer:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            result = task.call() if not tracer else \
                tracer.call(f"task.{task.group}", task.call, (), {})
            error = None
        except Exception as e:  # a task that raises is a failed task
            result, error = None, e
        latencies.append(time.perf_counter() - t0)
        done.append((task, result, error))
    wall = time.perf_counter() - start
    if tracer:
        tracer.task = -1
    return done, latencies, wall


def judge(done, total):
    """Record and check every verdict; returns (failed, digest, notes)."""
    digest = hashlib.sha256()
    failed = total - len(done)
    notes = []
    if failed:
        notes.append(f"{failed} tasks not issued before the deadline")
    for i, (task, result, error) in enumerate(done):
        ok = error is None
        if ok:
            try:
                record = task.record(result)
                ok = task.check(result)
            except Exception as e:  # a verdict that cannot be checked fails
                error = e
                ok = False
        if error is not None:
            record = ("error", type(error).__name__)
        digest.update(repr((task.group, record)).encode())
        digest.update(b"\n")
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"task {i} ({task.group}) failed: "
                             + (repr(error) if error else "wrong verdict"))
    return failed, digest.hexdigest(), notes


def main(argv=None):
    args = parse_args(argv)
    wl = load_workloads()
    tracer = None
    if args.trace:
        untraced = json.loads(child(args, "--trace", "0"))
        tracer = tracing.Tracer()
        tracer.install()
        workload = tracer.call("setup", wl.WORKLOADS[args.workload],
                               (args.seed, args.size), {})
    else:
        workload = wl.WORKLOADS[args.workload](args.seed, args.size)
    tasks = workload.tasks()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(setup_s)
        return 0

    done, latencies, wall_s = run_tasks(tasks, 2 * args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()     # the checks below are not traced
    failed, digest, notes = judge(done, len(tasks))

    reference = json.loads(args.reference.read_text())["digests"]
    expected = reference.get(args.workload, {}).get(f"{args.size}/{args.seed}")
    if expected is not None and expected != digest:
        notes.append(f"digest {digest} differs from reference {expected}")
        failed = len(tasks)
    correct = failed == 0

    if args.trace:
        overhead = wall_s / untraced["metrics"]["wall_s"]["value"]
        values = tracer.metrics(overhead)
        units = tracing.metric_names()
        tracer.write(ROOT / ".bench_out" /
                     f"trace-{args.workload}-{args.size}-{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed,
                      "size": args.size, "wall_s": wall_s})
        correct = correct and untraced["correct"]
    else:
        samples = [setup_s] + [float(child(args, "--setup-only"))
                               for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(samples),
            "wall_s": wall_s,
            "task_p50_ms": statistics.median(latencies) * 1e3,
            "task_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"workload {args.workload} size {args.size} seed {args.seed}: "
          f"{len(tasks)} tasks, {failed} failed, fail_ratio "
          f"{failed / len(tasks)}, digest {digest}"
          + ("" if expected is None else
             f" ({'matches' if expected == digest else 'differs from'} reference)"))
    groups = {}
    for (task, _, _), seconds in zip(done, latencies):
        n, total = groups.get(task.group, (0, 0.0))
        groups[task.group] = (n + 1, total + seconds)
    for group, (n, total) in groups.items():
        print(f"tasks {group}: {n} in {total:.3f} s")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(tasks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
