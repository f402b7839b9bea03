"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload trace --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh single-threaded processes (BLAS threads
pinned to 1) and prints, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer metrics of a traced run.  The line before it
is the machine fingerprint, and the full report (fingerprint, per-operation
times, oracle details) is written to ``.perfbench_out/``.

``--size smoke`` runs a tiny version of each workload for the benchmark's own
tests (``perfbench/test_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trace", "scan", "grid")
SETUP_SAMPLES = 7  # fresh processes timed to "ready"; setup_s is their median
TIMEOUT_S = 170

# One BLAS thread in every child: the workloads are scalar Python and
# timings must not depend on how many cores the BLAS library grabs.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def source_fingerprint() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def start_worker(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size, *extra]
    env = dict(os.environ, **CHILD_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"worker did not become ready (exit {proc.wait(timeout=max(deadline - perf_counter(), 1))})")
        speed = float(proc.stdout.readline().split()[1])
        rest = proc.communicate(timeout=max(deadline - perf_counter(), 1))[0]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return ready, speed, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "wavefronts" / "__init__.py").is_file():
        print(f"no wavefronts sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIMEOUT_S
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    extra = ["--spans", str(out_dir / f"spans-{tag}.jsonl")] if args.trace else []
    try:
        setups = []  # (seconds to ready, reference seconds per second)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(args, ["--setup-only"], deadline)[:2])
        ready, speed, out = start_worker(args, extra, deadline)
        setups.append((ready, speed))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])
    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": median(t * k for t, k in setups), "unit": "s"}
        report["setup_raw_samples_s"] = [t for t, _ in setups]
    correct = not report["unexpected_failures"] and report.get("self_time_ok", True)
    report["fingerprint"].update(source_fingerprint(), seed=args.seed, workload=args.workload,
                                 trace=args.trace, size=args.size, seconds=args.seconds)
    report["correct"] = correct
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"], "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
