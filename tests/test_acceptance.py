"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from conftest import solved_case
from georev.audits import (
    diameter_bound_audit,
    interior_point_audit,
    length_energy_ratio,
    monotonicity_audit,
    random_caps,
)
from georev.flow import (
    FlowPolicy,
    avoidance_harness,
    evolve,
    parallel_curve,
)
from georev.geodesics import (
    clairaut_state,
    closure_check,
    detect_self_intersections,
    parallel_state,
    shoot,
    trace_length,
)
from georev.glued import (
    GluedFamilyConfig,
    build_glued_family,
    cylinder_family_closed_forms,
)
from georev.numerics import (
    QuadratureSpec,
    central_difference,
    elliptic_K,
    elliptic_K_by_quadrature,
)
from georev.patches import (
    CutoffSpec,
    InversionConfig,
    MongePatch,
    cap_height_threshold,
    flatten_cutoff,
    graph_energy,
    invert_points,
    inverted_circle_length,
    toro_curvature,
    toro_patch,
)
from georev.spheroid import eval_Ic, ic_sandwich_bounds, solve_for_geodesic
from georev.surfaces import (
    ProfileCurve,
    RevolutionSurface,
    catenoid_profile,
    cylinder_profile,
    dumbbell_profile,
    sphere_profile,
    unit_sphere,
)
from georev.tiling import (
    complement_energy_audit,
    decompose_regions,
    region_gauss_bonnet,
)

FIGURE_CASES = {
    (3, 0.2): (4.038, 0.980),
    (3, 0.1): (4.009, 0.995),
    (4, 0.2): (5.049, 0.980),
    (4, 0.1): (5.012, 0.995),
}


def _report(num, desc, ok, extra=""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_figure_parameters():
    worst_t = 0.0
    ok = True
    detail = []
    for (N, eps), (b_ref, c_ref) in FIGURE_CASES.items():
        t0 = time.perf_counter()
        sol, _, _ = solve_for_geodesic(N, eps)
        dt = time.perf_counter() - t0
        worst_t = max(worst_t, dt)
        ok = ok and abs(sol.b - b_ref) < 0.01 and abs(sol.c - c_ref) < 0.005
        ok = ok and dt < 5.0
        detail.append(f"N={N},eps={eps}: b={sol.b:.4f},c={sol.c:.4f},{dt:.2f}s")
    _report(1, "figure parameters (b, c) reproduced", ok, "; ".join(detail))


def test_criterion_02_geodesic_verification():
    ok = True
    detail = []
    for N, eps in FIGURE_CASES:
        t0 = time.perf_counter()
        sol, surf, trace = solve_for_geodesic(N, eps)
        dt = time.perf_counter() - t0
        ok = ok and sol.closure_position_defect < 1e-6
        ok = ok and sol.closure_tangent_defect < 1e-6
        ok = ok and sol.crossings == N
        ok = ok and sol.clairaut_drift < 1e-8 and sol.speed_drift < 1e-8
        lo = 2.0 * (N + 1) * math.pi * sol.c
        hi = 2.0 * (N + 1) * math.pi / sol.c
        ok = ok and lo <= sol.length <= hi
        ok = ok and dt < 10.0
        # the independent route: a DOP853 shot of the same geodesic
        T = trace.closure.period
        shot = shoot(surf, clairaut_state(surf, sol.c), T)
        ts = np.linspace(0.0, T, 1024)
        gap = float(np.max(np.abs(trace.eval(ts)[:2] - shot.eval(ts)[:2])))
        ok = ok and gap < 1e-10
        detail.append(f"N={N}: closure={sol.closure_position_defect:.1e}, "
                      f"shot gap={gap:.1e}")
    _report(2, "closure, crossing count, drifts, length bounds, shot agreement", ok,
            "; ".join(detail))


def test_criterion_03_closure_integral_identities():
    ok = all(abs(eval_Ic(1.0, c) - math.pi) < 1e-9
             for c in np.arange(0.1, 0.95, 0.1))
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = float(rng.uniform(1.0 + 1e-9, 6.0))
        c = float(rng.uniform(0.05, 0.999))
        lo, hi = ic_sandwich_bounds(b, c)
        ok = ok and lo < eval_Ic(b, c) < hi
    for N, eps in FIGURE_CASES:
        sol, _, trace = solved_case(N, eps)
        u1_t0 = float(trace.eval(sol.t0)[0])
        ok = ok and abs(u1_t0 - eval_Ic(sol.b, sol.c) / 2.0) < 1e-6
    _report(3, "I_c round-sphere value, sandwich bounds, u1 increment", ok)


def test_criterion_04_elliptic_integral():
    ok = abs(elliptic_K(0.0) - math.pi / 2.0) < 1e-14
    for k in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
        ok = ok and abs(elliptic_K(k) - elliptic_K_by_quadrature(k)) < 1e-10
    k = 1e-4
    ratio = central_difference(elliptic_K, k, 2e-5) / k
    ok = ok and abs(ratio - math.pi / 4.0) < 1e-6 * (math.pi / 4.0)
    _report(4, "K(0), AGM vs quadrature, derivative ratio limit", ok,
            f"K'(k)/k - pi/4 = {ratio - math.pi / 4:.2e}")


def test_criterion_05_energy_closed_forms():
    ok = True
    times = []
    cases = []
    cases.append((unit_sphere(), 4 * math.pi, 4 * math.pi))
    a = 0.7
    cases.append((
        RevolutionSurface(ProfileCurve([sphere_profile(radius=a, phi_lo=0.0)])),
        2 * math.pi * a * a, 2 * math.pi,
    ))
    a, h = 0.5, 2.0
    cases.append((
        RevolutionSurface(ProfileCurve([cylinder_profile(a, 0.0, h)])),
        2 * math.pi * a * h, math.pi * h / (2 * a),
    ))
    cat = RevolutionSurface(ProfileCurve([catenoid_profile(0.5, -0.4, 0.4)]))
    t0 = time.perf_counter()
    _, W_cat = cat.area_and_willmore()
    times.append(time.perf_counter() - t0)
    ok = ok and abs(W_cat) < 1e-8
    for surf, A_ref, W_ref in cases:
        t0 = time.perf_counter()
        A, W = surf.area_and_willmore()
        times.append(time.perf_counter() - t0)
        ok = ok and abs(A - A_ref) < 1e-8 and abs(W - W_ref) < 1e-8
    ok = ok and max(times) < 1.0
    _report(5, "sphere/hemisphere/cylinder/catenoid closed forms", ok,
            f"max quadrature time {max(times):.3f}s")


def test_criterion_06_glued_families():
    ok = True
    detail = []
    # (i) vanishing-height neck at a = 0.02
    t0 = time.perf_counter()
    a = 0.02
    surf = build_glued_family(GluedFamilyConfig(a=a, cylinder_height="2a^2"))
    _, W = surf.area_and_willmore()
    ok = ok and abs(W - 6 * math.pi) < 0.05
    neck = shoot(surf, parallel_state(surf, surf.neck_u2), 3 * 2 * math.pi * a)
    rec = closure_check(neck, 1e-8, t_candidate=2 * math.pi * a)
    ok = ok and rec is not None
    ok = ok and abs(trace_length(neck, (0.0, rec.period)) - 2 * math.pi * a) < 1e-9
    dt1 = time.perf_counter() - t0
    ok = ok and dt1 < 60.0
    detail.append(f"2a^2: W-6pi={W - 6 * math.pi:+.4f}")
    # (ii) literal neck height: the closed forms force the 7 pi limit
    t0 = time.perf_counter()
    cfg = GluedFamilyConfig(a=0.005, cylinder_height="2a")
    surf = build_glued_family(cfg)
    _, W = surf.area_and_willmore()
    closed = cylinder_family_closed_forms(cfg)["total"][1]
    ok = ok and abs(W - 7 * math.pi) < 0.05
    ok = ok and abs(W - closed) < 1e-8
    ok = ok and len(surf.notes) == 1  # discrepancy note, not a failure
    dt2 = time.perf_counter() - t0
    ok = ok and dt2 < 60.0
    detail.append(f"2a: W-7pi={W - 7 * math.pi:+.4f}, note emitted")
    # (iii) capped spheroid with the 3-crossing geodesic intact
    t0 = time.perf_counter()
    a = 0.005
    sol, _, _ = solve_for_geodesic(3, 0.9 * a)
    surf = build_glued_family(
        GluedFamilyConfig(a=a, neck_kind="spheroid-band", b=sol.b)
    )
    _, W = surf.area_and_willmore()
    ok = ok and W < 4 * math.pi + 0.1
    init = clairaut_state(surf, sol.c * a, u2=surf.neck_u2)
    tr = shoot(surf, init, 4 * 4 * math.pi / (2 * sol.c) * a * 1.05)
    t_turn = float(tr.turning_times[0])
    rec = closure_check(tr, 1e-6, t_candidate=4 * t_turn)
    ok = ok and rec is not None
    ok = ok and len(detect_self_intersections(tr)) == 3
    dt3 = time.perf_counter() - t0
    ok = ok and dt3 < 60.0
    detail.append(f"band: W-4pi={W - 4 * math.pi:+.4f}, crossings=3")
    _report(6, "glued family energies and neck geodesics", ok,
            "; ".join(detail))


def test_criterion_07_tiling_suite():
    ok = True
    detail = []
    for N in (3, 4):
        t0 = time.perf_counter()
        sol, surf, trace = solved_case(N, 0.2)
        regions = decompose_regions(surf, trace, grid=(2048, 1024))
        deco = regions[0].decomposition
        ok = ok and len(regions) == N + 2
        worst = 0.0
        for r in regions:
            kda, _, res, checks = region_gauss_bonnet(r, xi=deco.xi, tol=1e-3)
            worst = max(worst, res)
            ok = ok and res < 1e-3
            ok = ok and kda < 2 * math.pi
            ok = ok and all(c.exterior >= -1e-6 for c in r.corners)
            ok = ok and kda <= 2 * math.pi - r.N_i * deco.xi + 1e-3
        for rep in complement_energy_audit(regions, tol=1e-3):
            ok = ok and rep.passed
        dt = time.perf_counter() - t0
        ok = ok and dt < 120.0
        detail.append(f"N={N}: {len(regions)} regions, worst GB {worst:.1e}, "
                      f"{dt:.0f}s")
    _report(7, "tiling region counts, Gauss-Bonnet, complements", ok,
            "; ".join(detail))


def test_criterion_08_section2_audits():
    from georev.glued import GluedFamilyConfig, build_glued_family
    from georev.surfaces import spheroid_surface

    surfaces = [unit_sphere(), spheroid_surface(4.038),
                build_glued_family(GluedFamilyConfig(a=0.1))]
    rng = np.random.default_rng(0)
    ok = True
    for cap in random_caps(surfaces, 50, seed=0):
        ok = ok and diameter_bound_audit(cap).passed
        ok = ok and interior_point_audit(cap).passed
        lo, hi = cap.u2_lo, cap.u2_hi
        x0 = lo + (hi - lo) * (0.2 + 0.6 * float(rng.random()))
        ok = ok and monotonicity_audit(cap, x0).passed
    _report(8, "diameter, interior-point, monotonicity audits on 50 caps", ok)


def test_criterion_09_unbounded_curvature_graph():
    rng = np.random.default_rng(1)
    pts = []
    while len(pts) < 1000:
        x, y = rng.uniform(-0.5, 0.5, 2)
        if 1e-4 < math.hypot(x, y) < 0.5:
            pts.append((float(x), float(y)))
    worst = toro_patch().finite_difference_check(pts)
    ok = worst < 1e-6
    pos = [float(toro_curvature(x, 0.0)[0]) for x in (1e-2, 1e-3, 1e-4)]
    neg = [float(toro_curvature(0.0, y)[0]) for y in (1e-2, 1e-3, 1e-4)]
    ok = ok and pos[0] > 0 and pos[2] > pos[1] > pos[0]
    ok = ok and neg[0] < 0 and neg[2] < neg[1] < neg[0]
    _report(9, "closed-form partials vs finite differences, K sign ladders",
            ok, f"worst FD mismatch {worst:.1e}")


def _quadratic(c1, c2, c3):
    def u(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return c1 * x * x + c2 * x * y + c3 * y * y

    def du(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (2 * c1 * x + c2 * y, c2 * x + 2 * c3 * y)

    def d2u(x, y):
        one = np.ones_like(np.asarray(x, dtype=float))
        return (2 * c1 * one, c2 * one, 2 * c3 * one)

    return MongePatch(u=u, du=du, d2u=d2u)


def test_criterion_10_flattening_energy_rate():
    deltas = (0.2, 0.1, 0.05, 0.025)
    ok = True
    slopes = []
    for patch in (_quadratic(0.5, 0.0, -0.5), _quadratic(0.4, 0.3, -0.2)):
        diffs = []
        for d in deltas:
            fd = flatten_cutoff(patch, CutoffSpec(d))
            _, W0, _, _ = graph_energy(patch, r_hi=2 * d, grid=(80, 128),
                                       panel_breaks=(d,))
            _, Wd, _, _ = graph_energy(fd, r_hi=2 * d, grid=(80, 128),
                                       panel_breaks=(d,))
            diffs.append(abs(W0 - Wd))
        slope = float(np.polyfit(np.log(deltas), np.log(diffs), 1)[0])
        slopes.append(slope)
        ok = ok and slope >= 1.7
    _report(10, "flattening energy difference scales like delta^2", ok,
            f"fitted slopes {slopes[0]:.2f}, {slopes[1]:.2f}")


def test_criterion_11_inversion_exactness():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(20):
        lam = 0.02 + 0.28 * float(rng.random())
        delta = 0.02 + 0.28 * float(rng.random())
        cfg = InversionConfig(lam)
        th = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
        rim = np.stack([delta * np.cos(th), delta * np.sin(th),
                        np.zeros_like(th)], axis=1)
        img = invert_points(rim, cfg)
        height = img[:, 2]
        ok = ok and float(np.max(np.abs(
            height - cap_height_threshold(lam, delta)))) < 1e-10
        length = 2 * math.pi * float(np.mean(np.hypot(img[:, 0], img[:, 1])))
        ok = ok and abs(length - inverted_circle_length(lam, delta)) < 1e-10
        rr = delta * np.sqrt(rng.random(200))
        ph = 2 * math.pi * rng.random(200)
        disk = np.stack([rr * np.cos(ph), rr * np.sin(ph), np.zeros(200)], axis=1)
        di = invert_points(disk, cfg)
        ok = ok and float(np.max(np.abs(
            np.linalg.norm(di - np.array([0, 0, 1.0]), axis=1) - 1.0))) < 1e-12
        ok = ok and float(np.min(di[:, 2])) > cap_height_threshold(lam, delta) \
            - 1e-12
    _report(11, "inversion cap threshold and rim-circle length exact", ok)


def test_criterion_12_curve_shortening_suite():
    t_all = time.perf_counter()
    dumb = RevolutionSurface(ProfileCurve([dumbbell_profile()]), name="dumbbell")
    res = evolve(dumb, parallel_curve(dumb, 0.0, m=64), 10.0,
                 FlowPolicy(convergence_tol=0.0))
    drift = float(np.max(np.abs(res.final.samples[:, 1])))
    ok = drift < 1e-6
    res = evolve(dumb, parallel_curve(dumb, 0.25, m=96), 5.0)
    ok = ok and res.converged and float(np.max(res.final.kappa_g)) < 1e-3
    ok = ok and bool(np.all(np.diff(res.lengths) <= 1e-12))
    sph = unit_sphere()
    lat = evolve(sph, parallel_curve(sph, 0.3, m=96), 10.0,
                 FlowPolicy(shrink_floor_frac=0.5))
    ok = ok and lat.shrinking
    ok = ok and bool(np.all(np.diff(lat.lengths) <= 1e-12))
    rec1 = avoidance_harness(dumb, parallel_curve(dumb, 0.25, m=64),
                             parallel_curve(dumb, 0.0, m=64), 1.0,
                             c2_stationary=True)
    rec2 = avoidance_harness(dumb, parallel_curve(dumb, 0.25, m=64),
                             parallel_curve(dumb, -0.25, m=64), 1.0)
    ok = ok and rec1.min_over_time > 0 and rec2.min_over_time > 0
    try:
        avoidance_harness(dumb, parallel_curve(dumb, 0.2, m=64),
                          parallel_curve(dumb, 0.2, m=64), 0.5)
        ok = False
    except ValueError:
        pass
    dt = time.perf_counter() - t_all
    ok = ok and dt < 120.0
    _report(12, "flow stationarity, convergence, monotonicity, avoidance",
            ok, f"neck drift {drift:.1e}, suite {dt:.0f}s")


def test_criterion_13_ratio_trend_stability():
    def min_ratio(tol_scale):
        spec = QuadratureSpec(abs_tol=1e-11 * tol_scale,
                              rel_tol=1e-10 * tol_scale)
        family = []
        for a in (0.2, 0.1, 0.05, 0.02):
            surf = build_glued_family(
                GluedFamilyConfig(a=a, cylinder_height="2a^2")
            )
            A, W = surf.area_and_willmore(spec=spec)
            neck = shoot(surf, parallel_state(surf, surf.neck_u2),
                         3 * 2 * math.pi * a, tol=1e-12 * tol_scale)
            rec = closure_check(neck, 1e-8, t_candidate=2 * math.pi * a)
            L = trace_length(neck, (0.0, rec.period))
            family.append({"label": f"a={a}", "surface": surf,
                           "geodesic_length": L})
        table = length_energy_ratio(family)
        assert all(r["ratio"] > 0 for r in table["rows"])
        return table["min_ratio"]

    base = min_ratio(1.0)
    tight = min_ratio(0.5)
    ok = base > 0 and abs(tight - base) <= 0.1 * base
    _report(13, "ratio trend positive and stable under tolerance halving",
            ok, f"min ratio {base:.6f}, halved-tol change "
                f"{abs(tight - base) / base:.2e}")
