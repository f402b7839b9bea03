"""Smoke tests of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and twice traced.  The tests check that
every metric named in BENCHMARK.json is printed with its unit, that only the
documented known-defect operations miss their oracles, that the counters
repeat exactly across the two traced runs, and that the benchmark refuses to
run without the package sources.
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
EXACT_UNITS = ("count", "bytes", "ratio")


def run(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace, seed=3):
    out = run(workload, trace, seed)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}-smoke.json").read_text())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, report["summary"]["oracles"]
    assert line["attempted"] >= 1
    assert set(report["summary"]["failed_ops"]) <= set(report["summary"]["known_defects"])
    return line, report


def units(line):
    return {k: v["unit"] for k, v in line["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_oracles(workload):
    line, report = result(workload, 0)
    assert units(line) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert report["fingerprint"]["seed"] == 3
    assert report["fingerprint"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    (a, ra), (b, rb) = result(workload, 1), result(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units(a) == expected
    exact = [k for k, u in expected.items() if u in EXACT_UNITS]
    assert {k: a["metrics"][k]["value"] for k in exact} == {k: b["metrics"][k]["value"] for k in exact}
    assert ra["self_time_ok"] and rb["self_time_ok"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("grid", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
