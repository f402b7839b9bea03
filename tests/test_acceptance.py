"""End-to-end acceptance checks.

Each test records one PASS/FAIL line through the ``acceptance`` fixture
(echoed in the terminal summary) and asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from wavefronts import expr as ex
from wavefronts import families, fronts, gallery, geometry, jets, pde
from wavefronts.cli import phase_seeds
from wavefronts.fields import fd_jacobian
from wavefronts.solve import System, continue_curve

from conftest import field_catalog

RNG = np.random.default_rng(20260823)


def test_criterion_1_cusp_caustic_oracle(acceptance):
    start = time.monotonic()
    fam = families.catalog()["cusp"]
    cloud = fronts.caustic(fam, phase_seeds(fam, 4), max_points=800)
    elapsed = time.monotonic() - start
    x = cloud.x
    res = np.abs(8 * x[:, 0] ** 3 + 27 * x[:, 1] ** 2) / np.maximum(1.0, np.abs(x[:, 0]) ** 3)
    ok = len(x) >= 200 and res.max() < 1e-6 and elapsed < 5.0
    acceptance(1, f"cusp caustic oracle ({len(x)} pts, residual {res.max():.1e}, {elapsed:.1f}s)", ok)
    assert ok


def test_criterion_2_ellipse_pipeline(acceptance):
    start = time.monotonic()
    e = geometry.Ellipse(a=2.0, b=1.0)

    cusps_ok = (
        np.allclose(e.evolute_point(0.0), [1.5, 0.0], atol=1e-3)
        and np.allclose(e.evolute_point(np.pi), [-1.5, 0.0], atol=1e-3)
        and np.allclose(e.evolute_point(np.pi / 2), [0.0, -3.0], atol=1e-3)
        and np.allclose(e.evolute_point(3 * np.pi / 2), [0.0, 3.0], atol=1e-3)
    )

    fam, _ = geometry.distance_squared_family(e)
    seeds = []
    for u in np.linspace(0, 2 * np.pi, 60):
        p, n = e.point(u), e.normal(u)
        for r in (-0.5, -1.0, -2.0):
            seeds.append(np.array([u, *(p + r * n)]))
    ca = fronts.caustic(fam, seeds, step=0.02, max_points=1500)
    ev_dense = np.array([e.evolute_point(u) for u in np.linspace(0, 2 * np.pi, 40001)])
    d_ca = fronts.polyline_distances(ca.x, [ev_dense]).max()
    ev_samples = np.array([e.evolute_point(u) for u in np.linspace(0, 2 * np.pi, 400)])
    d_ev = fronts.polyline_distances(ev_samples, ca.chains).max()
    hausdorff_ok = max(d_ca, d_ev) < 1e-3

    cusps = [
        p for r in np.linspace(-2.8, -0.55, 20) for p in geometry.parallel_cusps(e, r, np.linspace(0, 2 * np.pi, 720))
    ]
    n_cusps = len(cusps)
    worst = fronts.polyline_distances(np.array(cusps).reshape(-1, 2), [ev_dense]).max(initial=0.0)
    parallels_ok = n_cusps >= 20 and worst < 1e-3

    elapsed = time.monotonic() - start
    ok = cusps_ok and hausdorff_ok and parallels_ok and elapsed < 30.0
    acceptance(
        2,
        f"ellipse pipeline (match {max(d_ca, d_ev):.1e}, {n_cusps} parallel cusps "
        f"off by {worst:.1e}, {elapsed:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_3_delta_empty(acceptance, monkeypatch):
    monkeypatch.setattr(fronts, "TRACE_MAX_POINTS", 500)
    monkeypatch.setattr(fronts, "STALL_RATIO", 1e-6)
    counts = {}
    for name, fam in families.catalog().items():
        gl = families.GraphLikeFamily(base=fam)
        de = fronts.delta_set(gl, [-1.0, 0.0, 1.0], phase_seeds(fam, 4))
        counts[name] = len(de)
    ok = all(c == 0 for c in counts.values())
    acceptance(3, f"delta set empty for graph-like families ({counts})", ok)
    assert ok


def _random_critical_points(fam, count):
    out = []
    box = fam.field.box
    q_seeds = fam.seeds or [np.zeros(fam.k)]
    while len(out) < count:
        xs = [
            np.array([RNG.uniform(lo * 0.8, hi * 0.8) for lo, hi in box[fam.k :]])
            for _ in range(40)
        ]
        out.extend(families.solve_critical_set(fam, xs, q_seeds))
    return out[:count]


def test_criterion_4_space_front_singularity_equivalence(acceptance):
    disagreements = 0
    sigma_min = np.inf
    for fam in families.catalog().values():
        gl = families.GraphLikeFamily(base=fam)
        for cp in _random_critical_points(fam, 200):
            d = families.rank_diagnostics(gl, cp)
            space_sing = d["space_proj_rank"] < fam.n
            front_sing = d["front_proj_rank"] < fam.n
            disagreements += space_sing != front_sing
            sigma_min = min(sigma_min, d["immersion_sigma_min"])
    ok = disagreements == 0 and sigma_min > 1e-6
    acceptance(
        4,
        f"space/front singularity equivalence (0 disagreements expected, got "
        f"{disagreements}; immersion sigma_min {sigma_min:.1e})",
        ok,
    )
    assert ok


def test_criterion_5_nondegeneracy_matches_momentary_hypersurface_check(acceptance):
    disagreements = 0
    for fam in families.catalog().values():
        gl = families.GraphLikeFamily(base=fam)
        for cp in _random_critical_points(fam, 200):
            t0 = fam.value(cp.q, cp.x)
            a = families.nondegeneracy_check(gl, cp.q, cp.x, t0)
            b = families.morse_hypersurface_check(
                families.shifted_family(fam, t0), cp.q, cp.x
            )["pass"]
            disagreements += a != b
    ok = disagreements == 0
    acceptance(5, f"non-degeneracy vs momentary hypersurface rank ({disagreements} disagreements)", ok)
    assert ok


def test_criterion_6_burgers_breaking(acceptance):
    eq = pde.burgers()
    sheet = pde.integrate_characteristics(eq, np.linspace(0, 2 * np.pi, 400), (0.0, 1.0), 1e-3, [0.8])
    t_star = pde.breaking_time(sheet)
    count = pde.multivalued_count(sheet, math.pi, 0.8)
    ok = t_star is not None and abs(t_star - 0.5) < 1e-3 and count == 3
    acceptance(6, f"breaking time t* = {t_star:.4f}, count at (pi, 0.8) = {count}", ok)
    assert ok


def test_criterion_7_gallery_semicubics(acceptance, monkeypatch):
    monkeypatch.setattr(fronts, "CUSP_ANGLE", np.pi / 2)
    d4 = gallery.gallery_family(4)
    ca = gallery.gallery_discriminant(d4, []).caustic
    r4 = np.abs(27 * ca[:, 0] ** 2 + 4 * ca[:, 1] ** 3) / np.maximum(1.0, np.abs(ca[:, 1]) ** 3)
    keep = (np.abs(ca[:, 0]) > 1e-4) & (np.abs(ca[:, 1]) > 1e-4)
    slope4 = np.polyfit(np.log(np.abs(ca[keep, 1])), np.log(np.abs(ca[keep, 0])), 1)[0]

    d5 = gallery.gallery_family(5)
    de = gallery.gallery_discriminant(d5, []).delta
    r5 = np.abs(4 * de[:, 0] ** 3 + 27 * de[:, 1] ** 2) / np.maximum(1.0, np.abs(de[:, 0]) ** 3)
    keep5 = (np.abs(de[:, 0]) > 1e-4) & (np.abs(de[:, 1]) > 1e-4)
    slope5 = np.polyfit(np.log(np.abs(de[keep5, 0])), np.log(np.abs(de[keep5, 1])), 1)[0]

    cusp_total = 0
    u1 = np.linspace(-1.4, 1.4, 141)
    for t in np.linspace(-0.8, 0.8, 9):
        for fc in gallery.gallery_front(d5, t, u1):
            cusp_total += len(fronts.detect_cusps(fc.x))

    ok = (
        r4.max() < 1e-6
        and r5.max() < 1e-6
        and abs(slope4 - 1.5) < 0.02
        and abs(slope5 - 1.5) < 0.02
        and cusp_total == 0
    )
    acceptance(
        7,
        f"gallery semicubics (residuals {r4.max():.1e}/{r5.max():.1e}, exponents "
        f"{slope4:.3f}/{slope5:.3f}, smooth-front cusps {cusp_total})",
        ok,
    )
    assert ok


def test_criterion_8_versality_catalog(acceptance):
    cases = [
        ("q1^2", [], True),
        ("q1^2", ["q1"], True),
        ("q1^3", ["q1"], True),
        ("q1^3", [], False),
        ("q1^4", ["q1^2", "q1"], True),
        ("q1^4", ["q1^2"], False),
        ("q1^4", ["q1"], False),
        ("q1^5", ["q1^3", "q1^2", "q1"], True),
        ("q1^5", ["q1^3", "q1"], False),
        ("q1^5", ["q1^2", "q1"], False),
    ]
    agreements = 0
    for f_text, dfdx_texts, expected in cases:
        f = ex.parse_expr(f_text, ("q1",))
        dfdx = [ex.parse_expr(s, ("q1",)) for s in dfdx_texts]
        lag = jets.lagrangian_stability_check(f, dfdx, 8, variables=("q1",))
        sp = jets.sp_plus_versality_check(f, dfdx, 8, variables=("q1",))
        agreements += lag.passes == sp.passes == expected
    dims_ok = all(
        jets.k_determinacy_dimension(
            ex.parse_expr(f"q1^{mu + 1}", ("q1",)), 2 * (mu + 1), variables=("q1",)
        )
        == mu
        for mu in range(1, 6)
    )
    ok = agreements == len(cases) and dims_ok
    acceptance(
        8,
        f"versality equivalence ({agreements}/{len(cases)} cases, A_mu dims "
        f"{'match' if dims_ok else 'mismatch'})",
        ok,
    )
    assert ok


def test_criterion_9_numerics_hygiene(acceptance):
    # finite differences against every closed-form field in the catalogs
    worst_fd = 0.0
    closed_forms = list(field_catalog().values())
    closed_forms += [(fam.field.arity, fam.field.fn, fam.field.grad) for fam in families.catalog().values()]
    for arity, fn, grad in closed_forms:
        for _ in range(40):
            p = RNG.uniform(-2, 2, arity)
            g = grad(p)
            denom = np.maximum(1.0, np.abs(g))
            worst_fd = max(worst_fd, (np.abs(fd_jacobian(fn, p)[0] - g) / denom).max())
    fd_ok = worst_fd < 1e-6

    # RK4 convergence on curved characteristics
    a = pde.BlockField(3, lambda p: 2 * p[1], lambda p: np.array([0.0, 2.0, 0.0]))
    b = pde.BlockField(3, lambda p: p[1], lambda p: np.array([0.0, 1.0, 0.0]))
    phi = pde.BlockField(1, lambda p: np.sin(p[0]), lambda p: np.cos(p[:1]))
    eq = pde.QuasiLinearPDE(n=1, a=(a,), b=b, phi=phi)

    def rk4_err(dt):
        sheet = pde.integrate_characteristics(eq, [0.5, 1.0, 2.0], (0, 0.4), dt, [0.0, 0.4])
        worst = 0.0
        for x0, x_end in zip(sheet.xs[0, :, 0], sheet.xs[-1, :, 0]):
            exact = x0 + 2 * math.sin(x0) * (math.exp(0.4) - 1)
            worst = max(worst, abs(x_end - exact))
        return worst

    factor = rk4_err(0.02) / rk4_err(0.01)
    rk4_ok = factor >= 12.0

    # continuation residuals
    circle = lambda z: [z[0] ** 2 + z[1] ** 2 - 1.0]
    system = System(lambda z: (circle(z), [[2 * z[0], 2 * z[1]]]))
    c = continue_curve(system, np.array([1.0, 0.0]), step=0.05, max_points=300)
    res_circle = max(abs(circle(p)[0]) for p in c.points)
    fam = families.catalog()["cusp"]
    cloud = fronts.caustic(fam, phase_seeds(fam, 3), max_points=400)
    res_caustic = max(
        np.linalg.norm(fam.grad_q(q, x), np.inf) for x, q in zip(cloud.x, cloud.q)
    )
    cont_ok = max(res_circle, res_caustic) < 1e-8

    ok = fd_ok and rk4_ok and cont_ok
    acceptance(
        9,
        f"numerics hygiene (fd {worst_fd:.1e}, rk4 factor {factor:.1f}, "
        f"continuation residual {max(res_circle, res_caustic):.1e})",
        ok,
    )
    assert ok
