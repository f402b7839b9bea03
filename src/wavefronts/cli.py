"""Command-line interface: scene configuration plus the CSV/SVG output.

Each command builds one list of chains ``(t, X, Q, label)``; ``_emit`` writes
it as the CSV rows and, when n = 2, as one SVG polyline per chain.

Exit codes: 0 success, 1 numerical/module failure, 2 validation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import families, fronts, gallery, geometry, jets, pde
from . import expr as ex
from .emitters import emit_csv, emit_svg
from .errors import FamilySizeError, WavefrontError
from .linalg import RANK_EPS

DEFAULT_SEED_DENSITY = 8
MAX_SEED_DENSITY = 256
# largest range (parse_range), critical-set Newton stack
# (x_grid_and_q_seeds), parallels point set or strip count built from user
# input
MAX_SAMPLES = 10**6
# largest jet space (versal) and (steps + 1) x strips cells integrated (burgers)
MAX_JET_DIM = 10**4
MAX_HISTORY = 10**7
# most phase-space seeds handed to the front and caustic tracers
MAX_PHASE_SEEDS = 4096


class ValidationError(Exception):
    pass


def parse_range(text: str) -> np.ndarray:
    """Parse 'lo:hi:step' (leading/trailing spaces allowed) into a grid of
    ``np.arange(lo, hi + step / 2, step)``'s size whose sample i is the float
    nearest the exact decimal lo + i step (arange's is 5.55e-17 for the 0 of
    ' -0.3:0.3:0.1').  lo and step are the shortest decimals of their floats:
    the typed ones when they have at most 15 significant digits."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValidationError(f"range {text!r} must be lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as e:
        raise ValidationError(f"range {text!r}: {e}") from e
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValidationError(f"range {text!r} must be finite")
    if step <= 0 or hi < lo:
        raise ValidationError(f"range {text!r} is empty")
    # the sample count np.arange would allocate
    count = (hi + step / 2 - lo) / step
    if not count <= MAX_SAMPLES:
        raise ValidationError(f"range {text!r} has more than {MAX_SAMPLES} samples")
    n = np.arange(lo, hi + step / 2, step).size
    if n == 0:
        raise ValidationError(f"range {text!r} is empty")
    # exact rationals of bounded size (so not the text, which may be '1e-999999999');
    # int / int rounds correctly
    lo_x, step_x = Fraction(repr(lo)), Fraction(repr(step))
    a, b = lo_x.numerator * step_x.denominator, step_x.numerator * lo_x.denominator
    d = lo_x.denominator * step_x.denominator
    return np.array([(a + i * b) / d for i in range(n)])


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def parse_count(text: str) -> Tuple[float, float]:
    """Parse the 'x,t' of ``burgers --count`` into two finite floats."""
    try:
        x, t = (float(v) for v in text.split(","))
    except ValueError:
        x = t = math.nan
    if not (math.isfinite(x) and math.isfinite(t)):
        raise ValidationError(f"--count {text!r} must be x,t with finite x and t")
    return x, t


def _check_writable(path: Optional[str]):
    if path is None:
        return
    parent = Path(path).resolve().parent
    if not parent.is_dir() or not os.access(parent, os.W_OK):
        raise ValidationError(f"output directory {parent} is not writable")


def load_family(name: str) -> families.GeneratingFamily:
    if Path(name).is_file():
        return families.family_from_file(name)
    cat = families.catalog()
    if name in cat:
        return cat[name]
    raise ValidationError(
        f"unknown family {name!r}: not a file, not one of {sorted(cat)}"
    )


def load_curve(args) -> geometry.PlaneCurve:
    kinds = {"circle", "ellipse", "parabola"}
    if args.curve not in kinds:
        raise ValidationError(f"unknown curve {args.curve!r}: choose from {sorted(kinds)}")
    _finite("--a", args.a)
    _finite("--b", args.b)
    # a non-positive semi-axis would reverse or collapse the curve, and with
    # it the outward normal and the sign of every offset
    if args.curve != "parabola" and not args.a > 0:
        axis = "radius" if args.curve == "circle" else "semi-axis"
        raise ValidationError(f"--a {args.a} is the {args.curve}'s {axis}: it must be positive")
    if args.curve == "ellipse" and not args.b > 0:
        raise ValidationError(f"--b {args.b} is the ellipse's semi-axis: it must be positive")
    if args.curve == "circle":
        return geometry.Circle(radius=args.a)
    if args.curve == "ellipse":
        return geometry.Ellipse(a=args.a, b=args.b)
    return geometry.Parabola(c=args.a)


def _box_axes(box, density: int) -> List[np.ndarray]:
    """``density`` samples per axis of a box, 5% in from each end."""
    axes = []
    for lo, hi in box:
        m = 0.05 * (hi - lo)
        axes.append(np.linspace(lo + m, hi - m, density))
    return axes


def _box_grid(box, density: int) -> np.ndarray:
    """The density^d mesh over a box, 5% in from each end; one row per point.
    Its one caller, ``x_grid_and_q_seeds``, bounds the product of its grids
    first."""
    mesh = np.meshgrid(*_box_axes(box, density), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def phase_seeds(fam: families.GeneratingFamily, density: int) -> List[np.ndarray]:
    """Coarse (q, x) grid over the family's domain box (shrunk 10%): the rows
    of the ``_box_grid`` mesh, strided down to at most ``MAX_PHASE_SEEDS``.
    Only the kept rows are built."""
    axes = _box_axes(fam.field.box, density)
    total = density ** len(axes)
    if total > np.iinfo(np.intp).max:
        raise ValidationError(f"a {density}^{len(axes)} seed grid is too large to index")
    stride = -(-total // MAX_PHASE_SEEDS) if total > MAX_PHASE_SEEDS else 1
    index = np.unravel_index(np.arange(0, total, stride), (density,) * len(axes))
    return list(np.stack([ax[i] for ax, i in zip(axes, index)], axis=1))


def x_grid_and_q_seeds(fam: families.GeneratingFamily, density: int):
    """The x grid and q starting points of the critical-set solver: the
    family's own seeds when it has them, else the same grid over q.  Every
    seed is solved at every x, so their product is bounded, not each grid."""
    box = fam.field.box
    seeds = len(fam.seeds) if fam.seeds else density**fam.k
    if density**fam.n * seeds > MAX_SAMPLES:
        raise ValidationError(
            f"a {density}^{fam.n} x grid times {seeds} q seeds is more than {MAX_SAMPLES} Newton rows"
        )
    xg = _box_grid(box[fam.k :], density)
    if fam.seeds:
        return xg, [np.asarray(s, dtype=float) for s in fam.seeds]
    return xg, list(_box_grid(box[: fam.k], density))


def _split(t, X, Q, label: str, cut) -> List[tuple]:
    """The parts ``(t, X, Q, label)`` of one stacked table, cut before the rows ``cut``."""
    return [(*a, label) for a in zip(*(np.split(v, cut) for v in (t, X, Q)))]


def _caustic_parts(fam: families.GeneratingFamily, cloud: fronts.PointCloud) -> List[tuple]:
    """One part per caustic chain, with the family's value as t: one stacked
    field pass over the (q, x) rows, split by the chain lengths."""
    t = fam.field.derivatives(np.hstack([cloud.q, cloud.x]))[0]
    return _split(t, cloud.x, cloud.q, "caustic", np.cumsum([len(c) for c in cloud.chains])[:-1])


def _maxwell_parts(pts: List[fronts.MaxwellPoint], n: int, k: int) -> List[tuple]:
    """One part per traced Maxwell chain: value, x and the first sheet's q."""
    t = np.array([p.value for p in pts], dtype=float)
    X = np.array([p.x for p in pts], dtype=float).reshape(-1, n)
    Q = np.array([p.q for p in pts], dtype=float).reshape(-1, k)
    return _split(t, X, Q, "maxwell", np.flatnonzero(np.diff([p.chain for p in pts])) + 1)


def _emit(args, parts, n: int, k: int, extra=()) -> None:
    """Write one list of chains ``(t, X, Q, label)``, each with one t or a
    column of them.  The CSV lists their rows in chain order; the SVG draws
    one polyline per chain when n = 2 (x-space is a plane), then the
    ``extra`` ``(points, class)`` polylines.  A chain's x columns are
    formatted once: the SVG draws from the text the CSV printed them as."""
    texts = [None] * len(parts)
    if args.csv:
        texts = emit_csv(parts, n, k, args.csv)
        print(f"wrote {args.csv}")
    if args.svg:
        chains = [(X, label, text) for (_, X, _, label), text in zip(parts, texts)] if n == 2 else []
        emit_svg(chains + [(pts, cls, None) for pts, cls in extra], args.svg)
        print(f"wrote {args.svg}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args) -> int:
    fam = load_family(args.family)
    gl = families.GraphLikeFamily(base=fam)
    # even per-axis counts keep the grid off coordinate hyperplanes, where
    # isolated degenerate strata of the catalog families sit
    density = max(4, args.seed_density // 2)
    if density % 2:
        density += 1
    xg, qs = x_grid_and_q_seeds(fam, density)
    cps = families.solve_critical_set(fam, xg, qs)
    if not cps:
        print("no critical points found on the sampling grid")
        return 1
    morse = sum(
        families.morse_family_check(fam, cp.q, cp.x, eps=args.tol)["pass"] for cp in cps
    )
    # the rank of (dF, d dF/dq) does not depend on the value of F, so the
    # momentary hypersurface F - F(q, x) is checked through F itself
    hyper = sum(families.morse_hypersurface_check(fam, cp.q, cp.x, eps=args.tol)["pass"] for cp in cps)
    nondeg = sum(
        families.nondegeneracy_check(gl, cp.q, cp.x, fam.value(cp.q, cp.x), eps=args.tol)
        for cp in cps
    )
    m = len(cps)
    print(f"morse-family check: {'pass' if morse == m else 'FAIL'} ({morse}/{m} points)")
    print(f"graph-like (momentary hypersurface) check: {'pass' if hyper == m else 'FAIL'} ({hyper}/{m} points)")
    print(f"non-degeneracy check: {'pass' if nondeg == m else 'FAIL'} ({nondeg}/{m} points)")
    return 0


def cmd_front(args) -> int:
    _finite("--t", args.t)
    fam = load_family(args.family)
    gl = families.GraphLikeFamily(base=fam)
    seeds = phase_seeds(fam, args.seed_density)
    curves = fronts.momentary_front(gl, args.t, seeds)
    print(f"front t={args.t}: {sum(len(c.x) for c in curves)} points in {len(curves)} chains")
    _emit(args, [(fc.t, fc.x, fc.q, "front") for fc in curves], fam.n, fam.k)
    return 0


def cmd_big_front(args) -> int:
    fam = load_family(args.family)
    gl = families.GraphLikeFamily(base=fam)
    seeds = phase_seeds(fam, args.seed_density)
    t_values = parse_range(args.t)
    curves = fronts.big_front(gl, t_values, seeds)
    print(f"big front: {len(t_values)} slices, {len(curves)} chains, {sum(len(c.x) for c in curves)} points")
    _emit(args, [(fc.t, fc.x, fc.q, "front") for fc in curves], fam.n, fam.k)
    return 0


def cmd_caustic(args) -> int:
    fam = load_family(args.family)
    seeds = phase_seeds(fam, args.seed_density)
    cloud = fronts.caustic(fam, seeds)
    print(f"caustic: {len(cloud.x)} points")
    _emit(args, _caustic_parts(fam, cloud), fam.n, fam.k)
    return 0


def cmd_maxwell(args) -> int:
    fam = load_family(args.family)
    xg, qs = x_grid_and_q_seeds(fam, args.seed_density)
    pts = fronts.maxwell_set(fam, xg, qs)
    print(f"maxwell set: {len(pts)} points")
    _emit(args, _maxwell_parts(pts, fam.n, fam.k), fam.n, fam.k)
    return 0


def cmd_discriminant(args) -> int:
    fam = load_family(args.family)
    gl = families.GraphLikeFamily(base=fam)
    seeds = phase_seeds(fam, args.seed_density)
    xg, qs = x_grid_and_q_seeds(fam, args.seed_density)
    t_values = parse_range(args.t)
    dec = fronts.discriminant(gl, seeds, xg, qs, t_values)
    print(
        f"discriminant: caustic {len(dec.caustic.x)}, maxwell {len(dec.maxwell)}, "
        f"delta {len(dec.delta)} (empty as required)"
    )
    _emit(args, _caustic_parts(fam, dec.caustic) + _maxwell_parts(dec.maxwell, fam.n, fam.k), fam.n, fam.k)
    return 0


def cmd_evolute(args) -> int:
    curve = load_curve(args)
    u_grid = parse_range(args.u) if args.u else np.linspace(0.0, 2 * np.pi, 720)
    us, pts = geometry.evolute_samples(curve, u_grid)
    print(f"evolute: {len(us)} points")
    _emit(args, [(0.0, pts, us[:, None], "caustic")], 2, 1)
    return 0


def cmd_parallels(args) -> int:
    curve = load_curve(args)
    u_grid = parse_range(args.u) if args.u else np.linspace(0.0, 2 * np.pi, 720)
    r_values = parse_range(args.r)
    if len(r_values) * len(u_grid) > MAX_SAMPLES:
        raise ValidationError(f"{len(r_values)} offsets x {len(u_grid)} samples is more than {MAX_SAMPLES} points")
    offs = geometry.parallels(curve, r_values, u_grid)
    parts = [(r * r, pts, u_grid[:, None], "front") for r, pts in offs]
    print(f"parallels: {len(offs)} offsets x {len(u_grid)} samples (+ evolute)")
    _emit(args, parts, 2, 1, [(geometry.evolute(curve, u_grid), "caustic")])
    return 0


def cmd_burgers(args) -> int:
    if not 1 <= args.strips <= MAX_SAMPLES:
        raise ValidationError(f"--strips must be in [1, {MAX_SAMPLES}]")
    count_at = parse_count(args.count) if args.count else None
    eq = pde.burgers(speed=_finite("--speed", args.speed))
    t_values = parse_range(args.t)
    if t_values[0] != 0:
        raise ValidationError(f"--t {args.t!r} must start at 0, the time of the datum")
    t_show = float(t_values[-1])
    keep = [t_show]
    if count_at:
        x_hat, t_at = count_at
        if not 0 <= t_at <= t_show:
            raise ValidationError(f"--count t = {t_at} is outside the --t window [0, {t_show}]")
        keep.append(t_at)
    dt = float(t_values[1] - t_values[0]) if len(t_values) > 1 else 1e-3
    t_range = (0.0, t_show)
    rows = pde.step_count(t_range, dt) + 1
    if rows * args.strips > MAX_HISTORY:
        raise ValidationError(
            f"{rows} time samples x {args.strips} strips is more than {MAX_HISTORY} cells"
        )
    x0 = np.linspace(0.0, 2 * np.pi, args.strips)
    sheet = pde.integrate_characteristics(eq, x0, t_range, dt, keep)
    if args.report_breaking:
        t_star = pde.breaking_time(sheet)
        if t_star is None:
            print("t* = none (no fold in the sampled window)")
        else:
            print(f"t* = {t_star:.4f}")
    if count_at:
        print(f"count({x_hat}, {t_at}) = {pde.multivalued_count(sheet, x_hat, t_at)}")
    if args.csv or args.svg:
        vals = pde.sheet_values(sheet, t_show)
        _emit(args, [(t_show, vals, x0[:, None], "front")], 2, 1)
    return 0


def cmd_ode_gallery(args) -> int:
    alpha = None
    if args.alpha and args.alpha.strip() != "0":
        alpha = ex.parse_expr(args.alpha, ("v1", "v2"))
    try:
        diagram = gallery.gallery_family(args.germ, alpha)
    except ValueError as e:  # a modulus on a germ that takes none
        raise ValidationError(str(e)) from e
    t_values = parse_range(args.t)
    u1_grid = np.linspace(-1.6, 1.6, 10 * args.seed_density + 1)
    curves = [fc for t in t_values for fc in gallery.gallery_front(diagram, float(t), u1_grid)]
    disc = gallery.gallery_discriminant(diagram, curves)
    print(
        f"germ {args.germ} ({diagram.kind}): {len(t_values)} fronts; "
        f"caustic {len(disc.caustic)}, maxwell {len(disc.maxwell)}, delta {len(disc.delta)}"
    )
    extra = [(disc.caustic, "caustic"), (disc.maxwell, "maxwell"), (disc.delta, "delta")]
    _emit(args, [(fc.t, fc.x, fc.q, "front") for fc in curves], 2, 2, extra)
    return 0


def cmd_versal(args) -> int:
    if args.jet < 1 or args.k < 1:
        raise ValidationError("--jet and --k must be at least 1")
    # k + 1 variables at degree jet + 1 bound every jet space the checks
    # build; C(n, r) >= n here, so the first test keeps math.comb small
    top = args.k + args.jet + 2
    if top > MAX_JET_DIM or math.comb(top, args.jet + 1) > MAX_JET_DIM:
        raise ValidationError(f"--k {args.k} --jet {args.jet} needs a jet space of more than {MAX_JET_DIM} monomials")
    qvars = tuple(f"q{i + 1}" for i in range(args.k))
    f = ex.parse_expr(args.f, qvars)
    dfdx = [ex.parse_expr(s, qvars) for s in args.dfdx.split(";") if s.strip()]
    lag = jets.lagrangian_stability_check(f, dfdx, args.jet, variables=qvars)
    sp = jets.sp_plus_versality_check(f, dfdx, args.jet, variables=qvars)
    for name, rep in (("stability", lag), ("time-extended versality", sp)):
        verdict = "pass" if rep.passes else "FAIL"
        line = f"{name}: {verdict} (defect {rep.codimension_defect}"
        if rep.witnesses:
            line += f", witnesses {', '.join(rep.witnesses)}"
        print(line + ")")
    dim = jets.k_determinacy_dimension(f, args.jet, variables=qvars)
    print(f"determinacy dimension: {dim}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefronts",
        description="Generating families, wave fronts, caustics and their discriminants.",
    )
    # --seed-density only for the commands that build a seed grid
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed-density",
        type=int,
        default=DEFAULT_SEED_DENSITY,
        help=f"samples per axis for seeding grids, 1..{MAX_SEED_DENSITY} (default {DEFAULT_SEED_DENSITY})",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--csv", help="write labeled samples to this CSV path")
    common.add_argument("--svg", help="write curves to this SVG path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[seeded, common], help="run the family rank checks")
    p.add_argument("--family", required=True)
    p.add_argument("--tol", type=float, default=RANK_EPS, help=f"rank tolerance (default {RANK_EPS})")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("front", parents=[seeded, common], help="one momentary front")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(fn=cmd_front)

    p = sub.add_parser("big-front", parents=[seeded, common], help="stacked momentary fronts")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True, help="lo:hi:step")
    p.set_defaults(fn=cmd_big_front)

    p = sub.add_parser("caustic", parents=[seeded, common], help="caustic of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(fn=cmd_caustic)

    p = sub.add_parser("maxwell", parents=[seeded, common], help="equal-value critical pairs")
    p.add_argument("--family", required=True)
    p.set_defaults(fn=cmd_maxwell)

    p = sub.add_parser("discriminant", parents=[seeded, common], help="caustic + maxwell (+ empty delta)")
    p.add_argument("--family", required=True)
    p.add_argument("--t", required=True, help="lo:hi:step for the delta scan")
    p.set_defaults(fn=cmd_discriminant)

    for name, fn, extra in (
        ("evolute", cmd_evolute, False),
        ("parallels", cmd_parallels, True),
    ):
        p = sub.add_parser(name, parents=[common], help=f"{name} of a plane curve")
        p.add_argument("--curve", required=True, help="circle | ellipse | parabola")
        p.add_argument("--a", type=float, default=2.0)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--u", help="parameter range lo:hi:step (default full turn)")
        if extra:
            p.add_argument("--r", required=True, help="offset range lo:hi:step")
        p.set_defaults(fn=fn)

    p = sub.add_parser("burgers", parents=[common], help="characteristics of the model equation")
    p.add_argument("--t", required=True, help="0:hi:step (the datum is at t = 0; step = dt)")
    p.add_argument("--speed", type=float, default=2.0)
    p.add_argument("--strips", type=int, default=400)
    p.add_argument("--report-breaking", action="store_true")
    p.add_argument("--count", help="'x,t': report the number of characteristics there")
    p.set_defaults(fn=cmd_burgers)

    p = sub.add_parser("ode-gallery", parents=[seeded, common], help="normal-form front galleries")
    p.add_argument("--germ", type=int, required=True)
    p.add_argument("--t", required=True, help="lo:hi:step")
    p.add_argument("--alpha", default="0", help="functional modulus in (v1, v2), or 0")
    p.set_defaults(fn=cmd_ode_gallery)

    p = sub.add_parser("versal", parents=[common], help="jet-space stability report")
    p.add_argument("--f", required=True, help="germ, polynomial in q1..qk")
    p.add_argument("--dfdx", default="", help="semicolon-separated initial velocities")
    p.add_argument("--jet", type=int, default=8)
    p.add_argument("--k", type=int, default=1, help="number of q variables")
    p.set_defaults(fn=cmd_versal)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves no state in
    it, so every ``run`` reuses it."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if "seed_density" in args and not 1 <= args.seed_density <= MAX_SEED_DENSITY:
            raise ValidationError(f"--seed-density must be in [1, {MAX_SEED_DENSITY}]")
        if "tol" in args and not 0 < args.tol < math.inf:
            raise ValidationError(f"--tol must be positive and finite, got {args.tol}")
        _check_writable(args.csv)
        _check_writable(args.svg)
        return args.fn(args)
    except (ValidationError, FamilySizeError) as e:
        print(f"invalid arguments: {e}", file=sys.stderr)
        return 2
    except WavefrontError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 1


def main() -> None:  # console-script entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
