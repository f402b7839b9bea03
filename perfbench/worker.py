"""One fresh benchmark process: set up, warm up, then run timed rounds.

Started by ``run.py`` with BLAS threads pinned to 1.  Prints ``ready`` as soon
as set-up (imports, family and diagram construction, one untimed warm-up
operation) is done; ``run.py`` times the span from process start to that
line.  With ``--setup-only`` it exits there.  Otherwise it repeats the
workload's operations in rounds until ``--seconds`` have passed, checks
every operation's output against its oracle outside the timed region, and
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from wavefronts import cli, expr, families, fields, fronts, gallery, geometry, jets, pde, solve  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = {
    "cli": cli, "expr": expr, "families": families, "fields": fields, "fronts": fronts,
    "gallery": gallery, "geometry": geometry, "jets": jets, "pde": pde, "solve": solve,
}
MIN_ROUNDS = 3  # per-operation medians need at least three samples


def fingerprint() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    blas = ""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# Host speed drifts by up to 2x over seconds on a shared machine.  Each
# operation's time is rescaled by CALIBRATION_REF_S / c, where c is the mean
# time of a fixed package-independent kernel run just before and just after
# it (consecutive operations share the kernel run between them), so times are
# in reference seconds: seconds on a host that runs the kernel in
# CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.025
_CAL_MATRIX = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 1.0]])


def calibrate() -> float:
    """Time a fixed mix of interpreter arithmetic and small numpy calls."""
    start = perf_counter()
    s = 0.0
    for i in range(60000):
        s += math.sin(i) * 0.5
    for i in range(2000):
        np.linalg.svd(_CAL_MATRIX + i, compute_uv=False)
        np.concatenate([_CAL_MATRIX[0], _CAL_MATRIX[1]])
    return perf_counter() - start


def run_op(op, tracer=None):
    """Time one operation; exceptions count as a failure of the operation."""
    error = None
    start = perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.root(f"op:{op.name}"):
                result = op.run()
    except Exception as e:  # an operation that raises is a failed operation
        result, error = None, f"{type(e).__name__}: {e}"
    return result, perf_counter() - start, error


def check_op(op, result, error):
    if error is not None:
        return False, error, 0
    try:
        return op.check(result)
    except Exception as e:  # a malformed output is a miss, reported with its cause
        return False, f"oracle raised {type(e).__name__}: {e}", 0


class Rounds:
    """Per-operation times, points and oracle outcomes over rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.times = defaultdict(list)  # reference seconds
        self.raw_times = defaultdict(list)  # seconds
        self.calibration = []
        self._probe = None  # last calibration time: the next operation's "before"
        self.points = defaultdict(list)
        self.count = 0
        self.attempted = 0
        self.failed = defaultdict(int)
        self.details = {}

    def run(self, tracer=None, on_round=None):
        if self._probe is None:
            self._probe = calibrate()
        for op in self.ops:
            before = self._probe
            result, dt, error = run_op(op, tracer)
            self._probe = after = calibrate()
            self.calibration.append(after)
            ok, detail, points = check_op(op, result, error)
            self.times[op.name].append(dt * CALIBRATION_REF_S / ((before + after) / 2))
            self.raw_times[op.name].append(dt)
            self.points[op.name].append(points)
            self.attempted += 1
            if not ok:
                self.failed[op.name] += 1
            self.details[op.name] = {"ok": bool(ok), "detail": detail}
        self.count += 1
        if on_round is not None:
            on_round()

    def until(self, seconds, min_rounds, tracer=None, on_round=None):
        """Run rounds until ``seconds`` have passed and ``min_rounds`` are done."""
        end = perf_counter() + seconds
        while self.count < min_rounds or perf_counter() < end:
            self.run(tracer, on_round)

    def wall_s(self) -> float:
        """Sum over operations of each operation's median time."""
        return sum(median(v) for v in self.times.values())

    def points_per_round(self) -> float:
        return sum(median(v) for v in self.points.values())

    def unexpected_failures(self) -> list:
        known = {op.name for op in self.ops if op.known_defect}
        return sorted(name for name in self.failed if name not in known)

    def summary(self) -> dict:
        return {
            "rounds": self.count,
            "op_median_s": {k: median(v) for k, v in self.times.items()},
            "op_times_s": dict(self.times),
            "op_raw_times_s": dict(self.raw_times),
            "raw_wall_s": sum(median(v) for v in self.raw_times.values()),
            "calibration_median_s": median(self.calibration),
            "op_points": {k: median(v) for k, v in self.points.items()},
            "failed_ops": dict(self.failed),
            "known_defects": {op.name: op.known_defect for op in self.ops if op.known_defect},
            "oracles": self.details,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the first traced round's spans here (JSON lines)")
    args = ap.parse_args(argv)

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        wl = workloads.build(args.workload, args.seed, args.size, out_dir)
        result, _, error = run_op(wl.warmup)
        if error is not None or not wl.warmup.check(result)[0]:
            print(f"warm-up operation failed: {error}", file=sys.stderr)
            return 1
        print("ready", flush=True)
        # host speed right after set-up, so run.py can rescale set-up time
        print(f"speed {CALIBRATION_REF_S / calibrate()!r}", flush=True)
        if args.setup_only:
            return 0
        report = measure(args, wl, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report["fingerprint"] = fingerprint()
    print(json.dumps(report), flush=True)
    return 0


def measure(args, wl, out_dir) -> dict:
    if not args.trace:
        rounds = Rounds(wl.ops)
        rounds.until(args.seconds, MIN_ROUNDS if args.size == "full" else 1)
        metrics = {
            "wall_s": (rounds.wall_s(), "s"),
            "points_per_s": (rounds.points_per_round() / rounds.wall_s(), "1/s"),
            "ok_frac": (1.0 - sum(rounds.failed.values()) / rounds.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return report([rounds], metrics, params=wl.params)

    # Traced run: untraced rounds first (for the overhead), then traced rounds.
    plain = Rounds(wl.ops)
    plain.until(args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        with tracer.root("setup"):
            workloads.build(args.workload, args.seed, args.size, out_dir)
        setup_counts = tracer.take()
        traced = Rounds(wl.ops)
        taken = []
        tracer.record_spans = True

        def on_round():
            tracer.record_spans = False
            taken.append(tracer.take())

        traced.until(args.seconds / 2, 1, tracer, on_round)
    finally:
        tracer.uninstall()
    if args.spans:
        tracer.write_spans(args.spans)

    metrics = tracing.layer_metrics(taken[0], taken)
    metrics["expr.compile.setup_calls"] = (setup_counts["calls"].get("expr.compile", 0), "count")
    metrics["trace.wall_s"] = (traced.wall_s(), "s")
    metrics["trace.overhead_s"] = (traced.wall_s() - plain.wall_s(), "s")
    # the self times of all groups must add up to the root spans' durations
    gap = max(abs(sum(r["self_s"].values()) - r["root_s"]) for r in taken)
    return report(
        [plain, traced],
        metrics,
        params=wl.params,
        plain_rounds=plain.summary(),
        self_time_gap_s=gap,
        self_time_ok=gap <= 1e-6 + 1e-9 * max(r["root_s"] for r in taken),
        self_time_shares=tracing.self_time_shares(taken),
    )


def report(all_rounds, metrics, **extra) -> dict:
    """JSON-ready report; the summary describes the last set of rounds."""
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(sum(r.failed.values()) for r in all_rounds),
        "unexpected_failures": sorted({name for r in all_rounds for name in r.unexpected_failures()}),
        "summary": all_rounds[-1].summary(),
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
