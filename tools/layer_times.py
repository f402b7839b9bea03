"""Median microseconds of the layers of one traced point of the cusp front.

Usage:  python3 tools/layer_times.py [--repeat N]

The layers, each timed on the front F = q^4 + x1 q^2 + x2 q = t of the
catalog cusp at t = 0.5 (``fronts.front_system``), from a point z on it and
the predicted point z + h tau one ``fronts.TRACE_STEP`` along its tangent:

    jet              one ``ScalarField.jet`` of the predicted point (a list)
    evaluate         one front ``System.evaluate`` of the predicted point
    evaluate_stack4  one front ``System.evaluate`` of a stack of 4 rows
    pinv_2x3         one ``linalg.pinv_2x3`` of its Jacobian and residual
    newton_solve     one ``solve.newton_solve`` from the predicted point
    traced_point     one point of ``solve.continue_curve`` from z (at most
                     200 points each way), its time over its points

Each line is ``name  median_us  runs x calls``: the median over ``--repeat``
runs (default 15) of the mean time of one call in a run, a run being enough
calls to take about 20 ms (one call for ``traced_point``).  The package is
imported from the ``src/`` next to this file; numpy and the standard library
only.  Takes about 5 s at the default repeat count.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wavefronts import families, fronts, linalg, solve  # noqa: E402

RUN_SECONDS = 0.02
T = 0.5
# q and x1 of the front point; x2 solves dF/dq = 0 there
Q, X1 = 0.9, -1.0


def median_us(fn, repeat: int, calls: int):
    """Median over ``repeat`` runs of the mean microseconds of one ``fn()``
    in a run of ``calls`` calls."""
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(runs)


def calls_per_run(fn) -> int:
    """Calls of ``fn`` that take about ``RUN_SECONDS``, from one timed call."""
    start = time.perf_counter()
    fn()
    return max(1, int(RUN_SECONDS / max(time.perf_counter() - start, 1e-7)))


def layers():
    """``(name, fn, traced points per call)`` of each layer."""
    gl = families.GraphLikeFamily(base=families.catalog()["cusp"])
    system = fronts.front_system(gl, T)
    x2 = -(4 * Q**3 + 2 * X1 * Q)
    z = [Q, X1, x2]
    z[1] += (T - (Q**4 + X1 * Q * Q + x2 * Q)) / (Q * Q)  # F = t, dF/dq = 0 up to rounding
    z, J, _ = solve.newton_solve(system, z)
    tau = linalg.null_space(J)[:, 0].tolist()
    pred = [a + fronts.TRACE_STEP * b for a, b in zip(z, tau)]
    stack = np.array([pred] * 4)
    res, jac = system.evaluate(pred)
    fld = gl.base.field
    curve = solve.continue_curve(system, z, fronts.TRACE_STEP, 200)
    return [
        ("jet", lambda: fld.jet(pred, 0), 1),
        ("evaluate", lambda: system.evaluate(pred), 1),
        ("evaluate_stack4", lambda: system.evaluate(stack), 1),
        ("pinv_2x3", lambda: linalg.pinv_2x3(jac, res), 1),
        ("newton_solve", lambda: solve.newton_solve(system, pred), 1),
        ("traced_point", lambda: solve.continue_curve(system, z, fronts.TRACE_STEP, 200), len(curve.points)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed runs per layer (default 15)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for name, fn, points in layers():
        calls = 1 if points > 1 else calls_per_run(fn)
        us = median_us(fn, args.repeat, calls) / points
        print(f"{name:16s}  {us:10.2f}  {args.repeat} x {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
