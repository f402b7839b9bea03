"""Alternating paired benchmark runs of a parent commit and the working tree.

Usage:  python3 tools/bench_pairs.py --parent REF --workload W --pairs N --first-seed S [--out FILE]

Commit REF is extracted with ``git archive`` into a temporary directory.  The
script refuses to run when ``perfbench/`` or ``BENCHMARK.json`` differ between
REF and the working tree, so both sides run the same benchmark.  Pair ``i``
runs ``perfbench/run.py --workload W --seed S+i --trace 0 --seconds T`` (T is
``run_seconds`` of ``BENCHMARK.json``) once on each side; even pairs run the
parent first, odd pairs the working tree first.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the change/parent ratio of the medians, the pairs the change
won (ties count for neither side) and whether the gap between the medians
exceeds the parent's interquartile range.  Then, per operation, it prints
each side's median of its per-run medians and the change/parent ratio,
which shows where a change in ``wall_s`` sits.  It exits 1 if any run fails or
reports ``correct: false``, and 0 otherwise.  Standard library only.

``--out FILE`` also writes the result as one JSON object: the workload, the
parent commit, the seeds, the machine fingerprint of the first run with each
side's ``src/`` digest, per metric each side's values, median and
quartiles, the ratio, the pairs won and the IQR verdict, and per operation
each side's per-run medians (``summary.op_median_s`` of the run's
``.perfbench_out/result-<workload>-seed<N>-trace0-full.json``), their
median and the ratio, which shows where a change in ``wall_s`` sits.
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
    full = tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0-full.json"
    report["op_median_s"] = json.loads(full.read_text())["summary"]["op_median_s"]
    for line in lines:
        if line.startswith("fingerprint "):
            report["fingerprint"] = json.loads(line[len("fingerprint "):])
    return report


def spread(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def summarize(metrics: list, runs: list) -> dict:
    """Per end-to-end metric: both sides' spread, the ratio of the medians,
    the pairs the change won and whether the gap exceeds the parent's IQR."""
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(p["values"][name], c["values"][name]) for p, c in runs
                 if name in p.get("values", {}) and name in c.get("values", {})]
        if not pairs:
            continue
        par, chg = [p for p, _ in pairs], [c for _, c in pairs]
        (pq1, pm, pq3), (cq1, cm, cq3) = spread(par), spread(chg)
        lower = m["better"] == "lower"
        out[name] = {
            "better": m["better"],
            "parent": {"q1": pq1, "median": pm, "q3": pq3, "values": par},
            "change": {"q1": cq1, "median": cm, "q3": cq3, "values": chg},
            "ratio": cm / pm if pm else None,
            "pairs_won": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": abs(cm - pm) > pq3 - pq1,
        }
    return out


def summarize_ops(runs: list) -> dict:
    """Per operation: each side's per-run medians (a failed run has none),
    their median and the change/parent ratio of those medians."""
    out = {}
    ops = sorted({op for pair in runs for rep in pair for op in rep.get("op_median_s", {})})
    for op in ops:
        sides = {}
        for i, side in enumerate(("parent", "change")):
            values = [pair[i]["op_median_s"][op] for pair in runs if op in pair[i].get("op_median_s", {})]
            sides[side] = {"median": median(values) if values else None, "values": values}
        pm, cm = sides["parent"]["median"], sides["change"]["median"]
        out[op] = {**sides, "ratio": cm / pm if pm and cm is not None else None}
    return out


def print_summary(summary: dict) -> None:
    print(f"\n{'metric':<14}{'parent q1/median/q3':>32}{'change q1/median/q3':>32}{'ratio':>8}"
          f"{'won':>8}  gap > parent IQR")
    for name, r in summary.items():
        p, c = r["parent"], r["change"]
        ratio = float("nan") if r["ratio"] is None else r["ratio"]
        print(f"{name:<14}{p['q1']:>10.4g} {p['median']:>10.4g} {p['q3']:>10.4g}{c['q1']:>11.4g} "
              f"{c['median']:>10.4g} {c['q3']:>10.4g}{ratio:>8.3f}{r['pairs_won']:>5}/{r['pairs']:<2}  "
              f"{r['gap_exceeds_parent_iqr']}")
        print(f"{'':<14}parent {[round(v, 4) for v in p['values']]}")
        print(f"{'':<14}change {[round(v, 4) for v in c['values']]}")


def print_ops(ops: dict) -> None:
    """One line per operation of ``summarize_ops``: each side's median in
    seconds and the ratio; ``-`` where a side has no successful run."""
    def cell(v, fmt):
        return "-" if v is None else format(v, fmt)

    print(f"\n{'op':<24}{'parent median s':>16}{'change median s':>16}{'ratio':>8}")
    for op, r in ops.items():
        print(f"{op:<24}{cell(r['parent']['median'], '.4g'):>16}{cell(r['change']['median'], '.4g'):>16}"
              f"{cell(r['ratio'], '.3f'):>8}")


def fingerprint(pair: tuple) -> dict:
    """The machine fingerprint of a pair's parent run, with each side's src/ digest."""
    fps = [rep.get("fingerprint", {}) for rep in pair]
    out = {k: v for k, v in fps[0].items() if k not in ("seed", "git_commit", "src_sha256")}
    out["src_sha256"] = {"parent": fps[0].get("src_sha256"), "change": fps[1].get("src_sha256")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Paired benchmark runs of a parent commit and the working tree.")
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", help="also write the result to this JSON file")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    code, parent_commit = git("rev-parse", "--verify", "--quiet", f"{args.parent}^{{commit}}")
    if code != 0:
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
    summary, ops = summarize(bench["end_to_end"], runs), summarize_ops(runs)
    print_summary(summary)
    print_ops(ops)
    if args.out:
        result = {
            "workload": args.workload,
            "parent": parent_commit.strip(),
            "seeds": [args.first_seed + i for i in range(args.pairs)],
            "run_seconds": seconds,
            "fingerprint": fingerprint(runs[0]),
            "all_correct": all_correct,
            "metrics": summary,
            "op_median_s": ops,
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if not all_correct:
        print("\nat least one run failed or reported correct: false")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
