"""Median microseconds of the layers of one traced point of the cusp front,
of the cusp's critical set on a grid, of one RK4 step of the Burgers
characteristics and of one emitted CSV row.

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
    critical_solve   one ``solve.newton_batch`` of the cusp's
                     ``families.critical_system`` over the stack of the
                     ``grid`` benchmark's ``critical_ranks`` op: 150 x drawn
                     uniformly from [-4.8, 4.8]^2 (seed 0) times the
                     catalog's 5 q seeds
    rank_diagnostics one ``families.rank_diagnostics`` of a critical point of
                     that stack, its time over all of them
    rk4_step         one step of ``pde.integrate_characteristics`` on
                     ``pde.burgers()`` at 6000 strips over t = 0:0.7:0.001
                     (the ``grid`` benchmark's scene), its time over its
                     700 steps
    emit_row         one CSV row of ``cli._emit`` writing the ``parallels``
                     scene of the ``scan`` benchmark: 7 offsets
                     r = -2.8:-0.4:0.4 of the ellipse a = 2, b = 1 at 6284
                     samples u = 0:6.2832:0.001, to a CSV and to an SVG with
                     the evolute, its time over its 43,988 rows

Each line is ``name  median_us  runs x calls``: the median over ``--repeat``
runs (default 15) of the mean time of one call in a run, a run being enough
calls to take about 20 ms (one call for ``traced_point``,
``rank_diagnostics``, ``rk4_step`` and ``emit_row``).
The package is imported from the ``src/`` next to this file; numpy and the
standard library only.  Takes about 3 s at the default repeat count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wavefronts import cli, families, fronts, geometry, linalg, pde, solve  # noqa: E402

RUN_SECONDS = 0.02
T = 0.5
# the critical_ranks stack: grid x count and their box
CRITICAL_X, CRITICAL_SPAN = 150, 4.8
# the Burgers scene: strips and RK4 steps over t = 0:0.7:0.001
STRIPS, DT, STEPS = 6000, 1e-3, 700
# q and x1 of the front point; x2 solves dF/dq = 0 there
Q, X1 = 0.9, -1.0
# the parallels scene: offsets and samples of the ellipse a = 2, b = 1
PAR_R, PAR_U = " -2.8:-0.4:0.4", "0:6.2832:0.001"


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


def parallels_emit(out_dir: str):
    """``(fn, rows)``: ``fn`` writes the parallels scene through ``cli._emit``
    into ``out_dir``; ``rows`` is the CSV's row count."""
    curve, u_grid = geometry.Ellipse(a=2.0, b=1.0), cli.parse_range(PAR_U)
    offsets = geometry.parallels(curve, cli.parse_range(PAR_R), u_grid)
    parts = [(r * r, pts, u_grid[:, None], "front") for r, pts in offsets]
    extra = [(geometry.evolute(curve, u_grid), "caustic")]
    args = argparse.Namespace(csv=f"{out_dir}/parallels.csv", svg=f"{out_dir}/parallels.svg")

    def emit():
        with contextlib.redirect_stdout(io.StringIO()):
            cli._emit(args, parts, 2, 1, extra)

    return emit, len(offsets) * len(u_grid)


def layers(out_dir: str):
    """``(name, fn, traced points, steps or rows per call)`` of each layer;
    ``emit_row`` writes into ``out_dir``."""
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
    cusp = gl.base
    xs = np.random.default_rng(0).uniform(-CRITICAL_SPAN, CRITICAL_SPAN, (CRITICAL_X, cusp.n))
    seeds = np.array(cusp.seeds)
    critical = families.critical_system(cusp, np.repeat(xs, len(seeds), axis=0))
    q_seeds = np.tile(seeds, (len(xs), 1))
    cps = families.solve_critical_set(cusp, xs, cusp.seeds)
    burgers, x0 = pde.burgers(), np.linspace(0, 2 * np.pi, STRIPS)
    emit, rows = parallels_emit(out_dir)
    return [
        ("jet", lambda: fld.jet(pred, 0), 1),
        ("evaluate", lambda: system.evaluate(pred), 1),
        ("evaluate_stack4", lambda: system.evaluate(stack), 1),
        ("pinv_2x3", lambda: linalg.pinv_2x3(jac, res), 1),
        ("newton_solve", lambda: solve.newton_solve(system, pred), 1),
        ("traced_point", lambda: solve.continue_curve(system, z, fronts.TRACE_STEP, 200), len(curve.points)),
        ("critical_solve", lambda: solve.newton_batch(critical, q_seeds), 1),
        ("rank_diagnostics", lambda: [families.rank_diagnostics(gl, cp) for cp in cps], len(cps)),
        ("rk4_step", lambda: pde.integrate_characteristics(burgers, x0, (0, STEPS * DT), DT, [STEPS * DT]), STEPS),
        ("emit_row", emit, rows),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed runs per layer (default 15)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as out_dir:
        for name, fn, points in layers(out_dir):
            calls = 1 if points > 1 else calls_per_run(fn)
            us = median_us(fn, args.repeat, calls) / points
            print(f"{name:16s}  {us:10.2f}  {args.repeat} x {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
