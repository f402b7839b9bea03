"""Alternating paired benchmark runs of a parent commit and the working tree.

Usage:  python3 tools/bench_pairs.py --parent REF --workload W --pairs N --first-seed S

Commit REF is extracted with ``git archive`` into a temporary directory.  The
script refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ between
REF and the working tree, so both sides run the same benchmark.  Pair ``i``
runs ``perfbench/run.py --workload W --seed S+i --trace 0 --seconds T`` (T is
``run_seconds`` of ``BENCHMARK.json``) once on each side; even pairs run the
parent first, odd pairs the working tree first.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change/parent ratio of the medians, the pairs the change
won (ties count for neither side) and whether the gap between the medians
exceeds the parent's interquartile range.  It exits 1 if any run fails or
reports ``correct: false``, and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = ["perfbench", "BENCHMARK.json"]


def git(*args: str, capture_bytes: bool = False):
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=not capture_bytes)
    return out.returncode, out.stdout


def benchmark_differs(ref: str) -> bool:
    """True when the benchmark files of ``ref`` and the working tree differ
    (tracked changes or untracked files)."""
    changed, _ = git("diff", "--quiet", ref, "--", *BENCH_FILES)
    _, untracked = git("ls-files", "--others", "--exclude-standard", "--", *BENCH_FILES)
    return changed != 0 or bool(untracked.strip())


def extract(ref: str, dest: Path) -> None:
    code, data = git("archive", "--format=tar", ref, capture_bytes=True)
    if code != 0:
        raise SystemExit(f"git archive {ref} failed")
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; ``{"correct": False, "error": ...}`` if it fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {out.returncode}: {out.stderr.strip()[-300:]}"}
    report["values"] = {k: v["value"] for k, v in report["metrics"].items()}
    return report


def spread(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def summarize(metrics: list, runs: list) -> None:
    print(f"\n{'metric':<14}{'parent q1/median/q3':>32}{'change q1/median/q3':>32}{'ratio':>8}"
          f"{'won':>8}  gap > parent IQR")
    for m in metrics:
        name = m["name"]
        pairs = [(p["values"][name], c["values"][name]) for p, c in runs
                 if name in p.get("values", {}) and name in c.get("values", {})]
        if not pairs:
            continue
        par, chg = [p for p, _ in pairs], [c for _, c in pairs]
        (pq1, pm, pq3), (cq1, cm, cq3) = spread(par), spread(chg)
        lower = m["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in pairs)
        ratio = cm / pm if pm else float("nan")
        print(f"{name:<14}{pq1:>10.4g} {pm:>10.4g} {pq3:>10.4g}{cq1:>11.4g} {cm:>10.4g} {cq3:>10.4g}"
              f"{ratio:>8.3f}{won:>5}/{len(pairs):<2}  {abs(cm - pm) > pq3 - pq1}")
        print(f"{'':<14}parent {[round(v, 4) for v in par]}")
        print(f"{'':<14}change {[round(v, 4) for v in chg]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Paired benchmark runs of a parent commit and the working tree.")
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if git("rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}")[0] != 0:
        ap.error(f"unknown commit {args.parent!r}")
    if benchmark_differs(args.parent):
        print(f"perfbench/ or BENCHMARK.json differ between {args.parent} and the working tree; "
              "both sides must run the same benchmark", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs, all_correct = [], True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                rep = run_once(trees[side], args.workload, seed, seconds)
                pair[side] = rep
                all_correct &= rep.get("correct") is True
                wall = rep.get("values", {}).get("wall_s")
                print(f"pair {i} seed {seed} {side:<6} correct {rep.get('correct')} "
                      f"failed {rep.get('failed')}/{rep.get('attempted')} wall_s {wall} "
                      f"{rep.get('error', '')}", flush=True)
            runs.append((pair["parent"], pair["change"]))
    summarize(bench["end_to_end"], runs)
    if not all_correct:
        print("\nat least one run failed or reported correct: false")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
