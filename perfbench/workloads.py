"""The benchmark's three workloads: seeded scenes, operations and oracles.

An operation is one in-process ``cli.run(argv)`` that writes CSV and SVG
into a scratch directory, or one direct library call.  ``run`` is the timed
part; ``check`` reads the outputs afterwards, outside the timed region, and
compares them with a closed-form oracle.  The seed perturbs only scene
parameters (ellipse axes, time values and ranges, offset ranges, the Burgers
speed, sample positions), inside ranges where each oracle stays exact and the
amount of work stays nearly constant.

Why these three workloads:

* ``trace`` is bound by continuation: Newton correctors, finite-difference
  Jacobians and field evaluations.  It calls no polyline or gallery code.
* ``scan`` is sampled geometry with no continuation: point-to-polyline
  distances, curvature root scans, the ODE gallery's mu scans and a large
  SVG.  It builds no ScalarField.
* ``grid`` runs many short frozen-coordinate Newton solves from grid seeds
  (verify, maxwell, rank diagnostics), batched RK4 for Burgers and exact
  rational jet ranks.  It is the control for continuation-only changes.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

from wavefronts import cli, families, fronts, geometry

TWO_PI = 2 * math.pi


@dataclass
class Op:
    """One timed operation with its oracle.

    ``check(result)`` returns ``(ok, detail, points)``; ``points`` counts the
    result points delivered (CSV rows or returned samples).  A non-empty
    ``known_defect`` marks an operation that misses its oracle at the commit
    this benchmark was written against; its misses count as failures but do
    not make the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    known_defect: str = ""


@dataclass
class Workload:
    name: str
    ops: List[Op]
    warmup: Op
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CLI operations


@dataclass
class CliResult:
    rc: int
    stdout: str
    csv: Path
    svg: Path


def cli_op(name: str, argv: list, out_dir: Path, check, known_defect: str = "") -> Op:
    csv, svg = out_dir / f"{name}.csv", out_dir / f"{name}.svg"
    full = list(argv) + ["--csv", str(csv), "--svg", str(svg)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(full)
        return CliResult(rc, buf.getvalue(), csv, svg)

    def checked(res: CliResult):
        if res.rc != 0:
            return False, f"exit code {res.rc}", 0
        return check(res)

    return Op(name, run, checked, known_defect)


def read_csv(res: CliResult):
    """Numeric columns and labels of a CLI CSV file."""
    lines = res.csv.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {h: np.array([float(r[i]) for r in rows]) for i, h in enumerate(header[:-1])}
    labels = [r[-1] for r in rows]
    return cols, labels


def svg_polylines(res: CliResult):
    """(class, (N, 2) world coordinates) for each polyline of an SVG file."""
    out = []
    for cls, pts in re.findall(r'<polyline class="(\w+)" points="([^"]*)"', res.svg.read_text()):
        xy = np.array([[float(v) for v in p.split(",")] for p in pts.split()])
        xy[:, 1] = -xy[:, 1]  # the emitter negates y
        out.append((cls, xy))
    return out


def _rel(residual, scale):
    """Residual relative to the size of its terms: CSV and SVG values carry
    9 significant digits, so an absolute threshold would test the rounding."""
    return np.abs(residual) / np.maximum(1.0, scale)


# ---------------------------------------------------------------------------
# Oracles


def cusp_front_residuals(t, x1, x2, q):
    """|F - t| and |dF/dq| for F = q^4 + x1 q^2 + x2 q, relative to term size."""
    F = q**4 + x1 * q**2 + x2 * q
    Fq = 4 * q**3 + 2 * x1 * q + x2
    rf = _rel(F - t, q**4 + np.abs(x1) * q**2 + np.abs(x2 * q) + np.abs(t))
    rq = _rel(Fq, 4 * np.abs(q) ** 3 + 2 * np.abs(x1 * q) + np.abs(x2))
    return rf, rq


def check_cusp_caustic(res):
    cols, labels = read_csv(res)
    x1, x2 = cols["x1"], cols["x2"]
    if len(x1) < 200:
        return False, f"{len(x1)} points < 200", len(x1)
    r = np.abs(8 * x1**3 + 27 * x2**2) / np.maximum(1.0, np.abs(x1) ** 3)
    ok = r.max() < 1e-6 and set(labels) == {"caustic"}
    return ok, f"{len(x1)} points, residual {r.max():.1e}", len(x1)


def check_cusp_front(t_expected):
    def check(res):
        cols, labels = read_csv(res)
        n = len(cols["t"])
        if n < 200:
            return False, f"{n} rows < 200", n
        rf, rq = cusp_front_residuals(cols["t"], cols["x1"], cols["x2"], cols["q1"])
        ts = sorted({float(v) for v in np.round(cols["t"], 9)})
        ok = rf.max() < 1e-8 and rq.max() < 1e-8 and np.allclose(ts, t_expected, atol=1e-9)
        return ok, f"{n} rows, t {ts}, |F-t| {rf.max():.1e}, |Fq| {rq.max():.1e}", n

    return check


def ellipse_evolute_residual(a, b, xy):
    """Lame-curve residual (aX)^(2/3) + (bY)^(2/3) - (a^2 - b^2)^(2/3), relative."""
    c = (a * a - b * b) ** (2.0 / 3.0)
    r = np.abs(a * xy[:, 0]) ** (2.0 / 3.0) + np.abs(b * xy[:, 1]) ** (2.0 / 3.0) - c
    return np.abs(r) / c


def ellipse_cusps(a, b):
    c2 = a * a - b * b
    return np.array([[c2 / a, 0.0], [-c2 / a, 0.0], [0.0, c2 / b], [0.0, -c2 / b]])


def cusps_covered(a, b, xy, radius):
    if len(xy) == 0:
        return False
    d = np.linalg.norm(xy[None, :, :] - ellipse_cusps(a, b)[:, None, :], axis=2).min(axis=1)
    return bool(np.all(d < radius))


# ---------------------------------------------------------------------------
# Workloads

SIZES = {
    "trace": {
        "full": {"caustic_density": 4, "front_density": 5, "big_front_density": 4, "big_front_t": 2},
        "smoke": {"caustic_density": 3, "front_density": 4, "big_front_density": 4, "big_front_t": 1},
    },
    "scan": {
        "full": {"dense": 10001, "samples": 2000, "cusp_r": 60, "cusp_u": 1441, "gallery_t": 2,
                 "gallery_density": 8, "offsets": 7, "par_du": 0.001},
        "smoke": {"dense": 10001, "samples": 100, "cusp_r": 5, "cusp_u": 721, "gallery_t": 1,
                  "gallery_density": 2, "offsets": 2, "par_du": 0.01},
    },
    "grid": {
        "full": {"critical_x": 150, "strips": 6000, "jet2": 10},
        "smoke": {"critical_x": 20, "strips": 200, "jet2": 6},
    },
}

# Maxwell stratum of the cusp family: {x2 = 0, x1 < 0}.  The CLI default grid
# does not reach it, so the command reports 0 points.
MAXWELL_DEFECT = "maxwell --family cusp reports 0 points on the CLI default grid"


def _ellipse(rng):
    a = round(float(rng.uniform(1.95, 2.05)), 4)
    b = round(float(rng.uniform(0.95, 1.05)), 4)
    return a, b


def build_trace(rng, size, out_dir) -> Workload:
    p = SIZES["trace"][size]
    t_front = round(float(rng.uniform(0.45, 0.55)), 4)
    t0 = round(float(rng.uniform(-0.35, -0.25)), 3)
    t_big = [round(t0 + 0.5 * i, 3) for i in range(p["big_front_t"])]
    a, b = _ellipse(rng)

    ellipse = geometry.Ellipse(a=a, b=b)
    fam, _ = geometry.distance_squared_family(ellipse)
    # Seeds on one arc give one chain; u is not wrapped, so 2 * 450 steps of
    # 0.02 cover u in about [-3, 3.4] and with it all four cusps.
    seeds = []
    for u in np.linspace(0.2, 0.5, 4):
        pt, n = ellipse.point(u), ellipse.normal(u)
        for r in (-0.5, -1.0):
            seeds.append(np.array([u, *(pt + r * n)]))

    def ellipse_caustic():
        return fronts.caustic(fam, seeds, step=0.02, max_points=450)

    def check_ellipse(cloud):
        n = len(cloud.x)
        r = ellipse_evolute_residual(a, b, cloud.x)
        four = cusps_covered(a, b, cloud.x, 0.02)
        ok = n >= 200 and r.max() < 1e-6 and four
        return ok, f"{n} points, Lame residual {r.max():.1e}, four cusps {four}", n

    big_range = f" {t_big[0]}:{t_big[-1]}:0.5"
    ops = [
        cli_op("caustic", ["caustic", "--family", "cusp", "--seed-density", str(p["caustic_density"])],
               out_dir, check_cusp_caustic),
        cli_op("front", ["front", "--family", "cusp", "--t", str(t_front), "--seed-density",
                         str(p["front_density"])], out_dir, check_cusp_front([t_front])),
        cli_op("big_front", ["big-front", "--family", "cusp", "--t", big_range, "--seed-density",
                             str(p["big_front_density"])], out_dir, check_cusp_front(t_big)),
        Op("ellipse_caustic", ellipse_caustic, check_ellipse),
    ]
    warm = cli_op("warmup", ["caustic", "--family", "fold", "--seed-density", "2"], out_dir,
                  lambda res: (True, "", 0))
    params = {"t_front": t_front, "t_big": t_big, "a": a, "b": b}
    return Workload("trace", ops, warm, params)


def build_scan(rng, size, out_dir) -> Workload:
    p = SIZES["scan"][size]
    a, b = _ellipse(rng)
    ellipse = geometry.Ellipse(a=a, b=b)
    u_dense = np.linspace(0.0, TWO_PI, p["dense"])
    u_samples = np.sort(rng.uniform(0.0, TWO_PI, p["samples"]))
    # |r| stays inside (b^2/a, a^2/b) for every seeded axis pair: 4 cusps per r
    r_lo, r_hi = float(rng.uniform(-3.1, -3.0)), float(rng.uniform(-0.9, -0.8))
    r_values = np.linspace(r_lo, r_hi, p["cusp_r"])
    u_cusp = np.linspace(0.0, TWO_PI, p["cusp_u"])
    g0 = round(float(rng.uniform(-0.25, -0.15)), 3)
    g_t = [round(g0 + 0.2 * i, 3) for i in range(p["gallery_t"])]
    r0 = round(float(rng.uniform(-2.9, -2.7)), 3)
    offsets = [round(r0 + 0.4 * i, 3) for i in range(p["offsets"])]

    def evolute_distances():
        dense = geometry.evolute(ellipse, u_dense)
        samples = geometry.evolute(ellipse, u_samples)
        return dense, samples, fronts.polyline_distances(samples, [dense])

    def check_distances(res):
        dense, samples, d = res
        lame = max(ellipse_evolute_residual(a, b, dense).max(),
                   ellipse_evolute_residual(a, b, samples).max())
        four = cusps_covered(a, b, dense, 1e-9)
        ok = len(d) == len(u_samples) and d.max() < 1e-6 and lame < 1e-6 and four
        return ok, f"max distance {d.max():.1e}, Lame residual {lame:.1e}, four cusps {four}", len(d)

    def parallel_cusps():
        return [geometry.parallel_cusps(ellipse, float(r), u_cusp) for r in r_values]

    def check_cusps(res):
        counts = [len(c) for c in res]
        pts = np.array([pt for c in res for pt in c])
        lame = ellipse_evolute_residual(a, b, pts).max() if len(pts) else np.inf
        ok = all(c == 4 for c in counts) and lame < 1e-6
        return ok, f"cusps per offset {sorted(set(counts))}, Lame residual {lame:.1e}", len(pts)

    def check_gallery(res):
        cols, labels = read_csv(res)
        u1, u2 = cols["q1"], cols["q2"]
        mu = 0.75 * u1**4 + 0.5 * u1**2 * u2 + u2
        r_mu = _rel(mu - cols["t"], 0.75 * u1**4 + 0.5 * np.abs(u1**2 * u2) + np.abs(u2))
        g = np.stack([u1**3 + u2 * u1, u2], axis=1)
        r_g = _rel(np.abs(g - np.stack([cols["x1"], cols["x2"]], axis=1)).max(axis=1),
                   np.abs(u1) ** 3 + np.abs(u2 * u1))
        caustic = np.vstack([xy for cls, xy in svg_polylines(res) if cls == "caustic"] or [np.zeros((0, 2))])
        x, y = caustic[:, 0], caustic[:, 1]
        r_c = np.abs(27 * x**2 + 4 * y**3) / np.maximum(1.0, np.abs(y) ** 3)
        ts = sorted({float(v) for v in np.round(cols["t"], 9)})
        ok = (len(u1) > 0 and r_mu.max() < 1e-6 and r_g.max() < 1e-6 and len(caustic) >= 50
              and r_c.max() < 1e-6 and np.allclose(ts, g_t, atol=1e-9))
        detail = (f"{len(u1)} rows, |mu-t| {r_mu.max():.1e}, |x-g(u)| {r_g.max():.1e}, "
                  f"caustic {len(caustic)} points residual {r_c.max():.1e}")
        return ok, detail, len(u1) + len(caustic)

    u_hi = round(TWO_PI, 4)
    par_u = f" 0:{u_hi}:{p['par_du']}"

    def check_parallels(res):
        cols, labels = read_csv(res)
        u = cols["q1"]
        X = np.stack([a * np.cos(u), b * np.sin(u)], axis=1)
        normal = np.stack([b * np.cos(u), a * np.sin(u)], axis=1)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        d = np.stack([cols["x1"], cols["x2"]], axis=1) - X
        r_len = np.abs(np.linalg.norm(d, axis=1) - np.sqrt(cols["t"]))
        r_dir = np.abs(d[:, 0] * normal[:, 1] - d[:, 1] * normal[:, 0])
        polys = svg_polylines(res)
        n_u = len(np.arange(0.0, u_hi + p["par_du"] / 2, p["par_du"]))  # as cli.parse_range
        ok = (len(u) == len(offsets) * n_u and r_len.max() < 1e-6 and r_dir.max() < 1e-6
              and [c for c, _ in polys].count("front") == len(offsets)
              and [c for c, _ in polys].count("caustic") == 1)
        detail = f"{len(u)} rows, offset error {r_len.max():.1e}, normal error {r_dir.max():.1e}"
        return ok, detail, len(u)

    ops = [
        Op("evolute_distances", evolute_distances, check_distances),
        Op("parallel_cusps", parallel_cusps, check_cusps),
        cli_op("ode_gallery", ["ode-gallery", "--germ", "4", "--t", f" {g_t[0]}:{g_t[-1]}:0.2",
                               "--seed-density", str(p["gallery_density"])], out_dir, check_gallery),
        cli_op("parallels", ["parallels", "--curve", "ellipse", "--a", str(a), "--b", str(b), "--r",
                             f" {offsets[0]}:{offsets[-1]}:0.4", "--u", par_u], out_dir, check_parallels),
    ]
    warm = cli_op("warmup", ["parallels", "--curve", "ellipse", "--r", " -1:-1:1", "--u", "0:6.28:0.1"],
                  out_dir, lambda res: (True, "", 0))
    params = {"a": a, "b": b, "r_range": [r_lo, r_hi], "gallery_t": g_t, "offsets": offsets}
    return Workload("scan", ops, warm, params)


# (germ, initial velocities, expected stability/versality verdict, determinacy dimension)
VERSAL_CATALOG = [
    ("q1^2", [], True, 1),
    ("q1^2", ["q1"], True, 1),
    ("q1^3", ["q1"], True, 2),
    ("q1^3", [], False, 2),
    ("q1^4", ["q1^2", "q1"], True, 3),
    ("q1^4", ["q1^2"], False, 3),
    ("q1^4", ["q1"], False, 3),
    ("q1^5", ["q1^3", "q1^2", "q1"], True, 4),
    ("q1^5", ["q1^3", "q1"], False, 4),
    ("q1^5", ["q1^2", "q1"], False, 4),
]
# Two-variable germs.  D4: local algebra spanned by 1, q1, q2, q1*q2.
# A3: local algebra spanned by 1, q1, q1^2.
VERSAL_2VAR = [
    ("q1^3 + q2^3", ["q1", "q2", "q1*q2"], True, 4),
    ("q1^3 + q2^3", ["q1", "q2"], False, 4),
    ("q1^4 + q2^2", ["q1", "q1^2"], True, 3),
]


def check_versal(expected, dim):
    word = "pass" if expected else "FAIL"

    def check(res):
        out = res.stdout
        ok = (f"stability: {word}" in out and f"time-extended versality: {word}" in out
              and f"determinacy dimension: {dim}\n" in out)
        return ok, out.strip().replace("\n", "; "), 0

    return check


def check_verify(res):
    lines = [ln for ln in res.stdout.splitlines() if "check:" in ln]
    m = re.findall(r"\((\d+)/(\d+) points\)", res.stdout)
    ok = len(lines) == 3 and all(": pass (" in ln for ln in lines) and all(a == b for a, b in m)
    return ok, "; ".join(lines), int(m[0][1]) if m else 0


def check_maxwell(res):
    cols, labels = read_csv(res)
    n = len(cols["t"])
    ok = n > 0 and np.abs(cols["x2"]).max() < 1e-6 and cols["x1"].max() < 0
    return ok, f"{n} points (stratum x2 = 0, x1 < 0)", n


def build_grid(rng, size, out_dir) -> Workload:
    p = SIZES["grid"][size]
    fam = families.catalog()["cusp"]
    gl = families.GraphLikeFamily(base=fam)
    xs = rng.uniform(-4.8, 4.8, (p["critical_x"], 2))
    speed = round(float(rng.uniform(1.8, 2.2)), 3)

    def critical_ranks():
        cps = families.solve_critical_set(fam, xs, fam.seeds)
        return cps, [families.rank_diagnostics(gl, cp) for cp in cps]

    def check_ranks(res):
        cps, diags = res
        found = {}
        worst, bad_rank, sigma = 0.0, 0, np.inf
        for cp, d in zip(cps, diags):
            q, (x1, x2) = cp.q[0], cp.x
            found[(x1, x2)] = found.get((x1, x2), 0) + 1
            worst = max(worst, abs(4 * q**3 + 2 * x1 * q + x2))
            singular = abs(12 * q * q + 2 * x1) < 1e-6
            bad_rank += (d["space_proj_rank"] < 2) != singular
            bad_rank += (d["space_proj_rank"] < 2) != (d["front_proj_rank"] < 2)
            sigma = min(sigma, d["immersion_sigma_min"])
        # every real root of 4q^3 + 2 x1 q + x2 is found: three iff 8x1^3 + 27x2^2 < 0
        missing = sum(
            found.get((x1, x2), 0) != (3 if 8 * x1**3 + 27 * x2**2 < 0 else 1) for x1, x2 in xs
        )
        ok = worst < 1e-8 and bad_rank == 0 and sigma > 1e-6 and missing == 0
        detail = (f"{len(cps)} critical points, residual {worst:.1e}, rank mismatches {bad_rank}, "
                  f"root count misses {missing}, sigma_min {sigma:.1e}")
        return ok, detail, len(cps)

    def check_burgers(res):
        m = re.search(r"t\* = ([0-9.]+)", res.stdout)
        cols, _ = read_csv(res)
        if not m:
            return False, "no breaking time reported", len(cols["t"])
        t_star = float(m.group(1))
        ok = abs(t_star - 1.0 / speed) < 1e-3 and len(cols["t"]) == p["strips"]
        return ok, f"t* = {t_star} vs 1/speed = {1 / speed:.4f}", len(cols["t"])

    ops = [
        cli_op("verify_cusp", ["verify", "--family", "cusp"], out_dir, check_verify),
        cli_op("verify_fold", ["verify", "--family", "fold"], out_dir, check_verify),
        cli_op("maxwell_cusp", ["maxwell", "--family", "cusp"], out_dir, check_maxwell, MAXWELL_DEFECT),
        Op("critical_ranks", critical_ranks, check_ranks),
        cli_op("burgers", ["burgers", "--t", "0:0.7:0.001", "--strips", str(p["strips"]),
                           "--report-breaking", "--speed", str(speed)], out_dir, check_burgers),
    ]
    for i, (f, dfdx, expected, dim) in enumerate(VERSAL_CATALOG):
        ops.append(cli_op(f"versal_{i}", ["versal", "--f", f, "--dfdx", ";".join(dfdx), "--jet", "8"],
                          out_dir, check_versal(expected, dim)))
    for i, (f, dfdx, expected, dim) in enumerate(VERSAL_2VAR):
        ops.append(cli_op(f"versal_2var_{i}", ["versal", "--f", f, "--dfdx", ";".join(dfdx), "--jet",
                                               str(p["jet2"]), "--k", "2"], out_dir, check_versal(expected, dim)))
    warm = cli_op("warmup", ["verify", "--family", "fold", "--seed-density", "4"], out_dir,
                  lambda res: (True, "", 0))
    return Workload("grid", ops, warm, {"speed": speed, "critical_x": len(xs)})


BUILDERS = {"trace": build_trace, "scan": build_scan, "grid": build_grid}


def build(name: str, seed: int, size: str, out_dir: Path) -> Workload:
    """Construct a workload's families, diagrams and inputs from the seed."""
    return BUILDERS[name](np.random.default_rng(seed), size, Path(out_dir))
