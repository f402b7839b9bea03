"""Compare two benchmark result files and flag a fingerprint mismatch.

    python3 perfbench/compare.py .perfbench_out/result-A.json .perfbench_out/result-B.json

Prints each metric of both results with the relative change.  Timings from
different machines, interpreters, numpy/BLAS builds or BLAS thread settings
do not compare; such a pair is flagged, and the exit code is 3.
"""

from __future__ import annotations

import json
import sys

MACHINE_KEYS = ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads")
RUN_KEYS = ("workload", "trace", "size", "seconds")


def mismatches(fa: dict, fb: dict, keys) -> list:
    return [f"{k}: {fa.get(k)!r} != {fb.get(k)!r}" for k in keys if fa.get(k) != fb.get(k)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(p)) for p in argv)
    fa, fb = a["fingerprint"], b["fingerprint"]
    machine = mismatches(fa, fb, MACHINE_KEYS)
    run = mismatches(fa, fb, RUN_KEYS)
    print(f"A: commit {fa.get('git_commit')} src {fa['src_sha256'][:12]} seed {fa['seed']}")
    print(f"B: commit {fb.get('git_commit')} src {fb['src_sha256'][:12]} seed {fb['seed']}")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        unit = (a["metrics"].get(name) or b["metrics"].get(name))["unit"]
        change = f"{(vb - va) / va:+.1%}" if va and vb is not None else "-"
        print(f"{name:45s} {va!s:>22} {vb!s:>22} {unit:6s} {change}")
    for label, diffs in (("machine fingerprints differ", machine), ("run settings differ", run)):
        if diffs:
            print(f"WARNING: {label}; timings do not compare: " + "; ".join(diffs))
    return 3 if machine or run else 0


if __name__ == "__main__":
    sys.exit(main())
