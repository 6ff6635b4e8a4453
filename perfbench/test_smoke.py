"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the tiny runs match their reference digests, that a corrupted
reference digest trips the gate, and that the benchmark refuses to run
without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "2025", "--seconds", "30",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result(workload, trace, *extra):
    out = run(workload, trace, *extra)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    res = result(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert units(res) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_corrupted_reference_digest_trips_gate(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    digests = ref["digests"]["validity"]
    good = digests["tiny/2025"]
    digests["tiny/2025"] = ("1" if good[0] == "0" else "0") + good[1:]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    res = result("validity", 0, "--reference", str(path))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("corpus", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
