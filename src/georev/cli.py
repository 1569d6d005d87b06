"""Command-line front end: batch runs with JSON/CSV/SVG artifacts.

Every run writes a manifest echoing the fully resolved configuration
(including every tolerance in effect) next to the command's summary.  All
randomized audits are seeded; outputs are byte-identical across runs with
the same config and seed, except for an optional timestamp comment in SVG
headers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (
    diameter_bound_audit,
    injectivity_bound_report,
    interior_point_audit,
    length_energy_ratio,
    monotonicity_audit,
    random_caps,
)
from .flow import (
    AvoidanceViolation,
    FlowPolicy,
    avoidance_harness,
    evolve,
    parallel_curve,
)
from .geodesics import (
    clairaut_trace,
    closure_check,
    detect_self_intersections,
    parallel_state,
    shoot,
    trace_length,
)
from .glued import (
    GluedFamilyConfig,
    build_glued_family,
    cylinder_family_closed_forms,
)
from .numerics import QuadratureSpec
from .patches import (
    InversionConfig,
    cap_height_threshold,
    graph_energy,
    invert_points,
    inverted_circle_length,
    toro_curvature,
    toro_patch,
)
from .report import (
    SCHEMA_VERSION,
    flow_figure_svg,
    trace_figure_svg,
    write_csv,
    write_json,
)
from .spheroid import SolverError, _check_resolved, eval_Ic, solve_for_geodesic
from .surfaces import (
    ProfileCurve,
    RevolutionSurface,
    dumbbell_profile,
    spheroid_surface,
    unit_sphere,
)
from .tiling import (
    complement_energy_audit,
    decompose_regions,
    export_region_table,
    mask_to_pgm,
    region_gauss_bonnet,
)

_COMMANDS = ("spheroid", "glued", "tiling", "audits", "toro", "invert", "csf", "all")

_ALLOWED_PARAMS = {
    "spheroid": {"N", "eps"},
    "glued": {"a", "kind", "cyl_height", "N"},
    "tiling": {"N", "eps", "grid", "masks"},
    "audits": {"suite", "count"},
    "toro": {"points", "eps"},
    "invert": {"count"},
    "csf": {"t_end", "u2_offset", "samples"},
    "all": set(),
}


# the numbers the runners read: counts, which must be at least 1, and reals,
# which must lie strictly between the given bounds (None: unbounded)
_COUNTS = ("N", "count", "points")
_REAL_RANGE = {
    "spheroid": {"eps": (0.0, 1.0)},
    "tiling": {"eps": (0.0, 1.0)},
    "toro": {"eps": (0.0, None)},
    "csf": {"t_end": (0.0, None)},
}


class ConfigError(ValueError):
    pass


def _tolerances(scale):
    return {
        "quad_abs_tol": 1e-11 * scale,
        "quad_rel_tol": 1e-10 * scale,
        "root_tol": 1e-12 * scale,
        "shoot_tol": 1e-12 * scale,
        "closure_tol": 1e-6 * scale,
        "gauss_bonnet_residual_tol": 1e-3,
        "angle_tol": 1e-6,
        "audit_tol": 1e-6,
        "complement_tol": 1e-3,
    }


def _quad_spec(tol):
    return QuadratureSpec(abs_tol=tol["quad_abs_tol"], rel_tol=tol["quad_rel_tol"])


def _summary(command, payload, passed):
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "pass": bool(passed),
        **payload,
    }


# -- command implementations -----------------------------------------------------


def _run_spheroid(params, tol, outdir, rng, timestamp):
    N = int(params.get("N", 3))
    eps = float(params.get("eps", 0.2))
    sol, surf, trace = solve_for_geodesic(
        N, eps, shoot_tol=tol["shoot_tol"], closure_tol=tol["closure_tol"]
    )
    problems = sol.check_invariants()
    ok = not problems and sol.crossings == N
    (outdir / "geodesic.svg").write_text(
        trace_figure_svg(surf, trace, timestamp=timestamp)
    )
    ts = np.linspace(0.0, sol.length, 2048)
    ys = trace.eval(ts)
    pts = surf.point(ys[0], ys[1])
    cols = [ts.tolist(), *ys.tolist(), *pts.T.tolist()]
    write_csv(
        outdir / "trace.csv",
        ["t", "u1", "u2", "du1", "du2", "x", "y", "z"],
        zip(*cols),
    )
    payload = {"solution": sol.to_dict(), "invariant_problems": problems,
               "Ic": eval_Ic(sol.b, sol.c)}
    return _summary("spheroid", payload, ok), ok


def _glued_cylinder(params, tol, outdir, timestamp):
    a = float(params.get("a", 0.1))
    rule = params.get("cyl_height", "2a")
    cfg = GluedFamilyConfig(a=a, cylinder_height=rule)
    surf = build_glued_family(cfg)
    spec = _quad_spec(tol)
    pieces = surf.piece_energies(spec)
    A, W = surf.area_and_willmore(spec=spec)
    closed = cylinder_family_closed_forms(cfg)
    # closed-form oracle comparison per piece
    defect = 0.0
    for label, pa, pw in pieces:
        key = label if label in closed else None
        if key:
            defect = max(defect, abs(pa - closed[key][0]), abs(pw - closed[key][1]))
    neck_trace = shoot(
        surf, parallel_state(surf, surf.neck_u2), 3.0 * 2.0 * math.pi * a,
        tol=tol["shoot_tol"],
    )
    rec = closure_check(neck_trace, tol["closure_tol"],
                        t_candidate=2.0 * math.pi * a)
    neck_len = trace_length(neck_trace, (0.0, rec.period)) if rec else math.nan
    ok = rec is not None and defect < 1e-8
    write_csv(
        outdir / "pieces.csv",
        ["piece", "area", "willmore"],
        [(label, pa, pw) for label, pa, pw in pieces],
    )
    payload = {
        "family": cfg.to_dict(),
        "joins": surf.joins,
        "area": A,
        "willmore": W,
        "willmore_minus_6pi": W - 6.0 * math.pi,
        "willmore_minus_7pi": W - 7.0 * math.pi,
        "closed_form_total": {"area": closed["total"][0],
                              "willmore": closed["total"][1]},
        "piecewise_closed_form_defect": defect,
        "neck_geodesic_length": neck_len,
        "notes": list(surf.notes),
    }
    return _summary("glued", payload, ok), ok


def _glued_band(params, tol, outdir, timestamp):
    a = float(params.get("a", 0.005))
    N = int(params.get("N", 3))
    eps_eff = 0.9 * a  # keeps the latitude turning point clear of the cap join
    sol, _, _ = solve_for_geodesic(
        N, eps_eff, shoot_tol=tol["shoot_tol"], closure_tol=tol["closure_tol"]
    )
    cfg = GluedFamilyConfig(a=a, neck_kind="spheroid-band", b=sol.b)
    surf = build_glued_family(cfg)
    spec = _quad_spec(tol)
    A, W = surf.area_and_willmore(spec=spec)
    # trace the same geodesic on the glued surface (scaled Clairaut constant)
    t_max = 4.0 * (N + 1) * math.pi / (2.0 * sol.c) * a * 1.05
    trace = clairaut_trace(surf, sol.c * a, t_max)
    _check_resolved(trace, tol["shoot_tol"], "the glued spheroid-band surface")
    if trace.turning_times.size == 0:
        raise SolverError(
            "no latitude turning point found on the geodesic traced on the "
            "glued spheroid-band surface"
        )
    t0 = float(trace.turning_times[0])
    rec = closure_check(trace, tol["closure_tol"], t_candidate=4.0 * t0)
    crossings = detect_self_intersections(trace) if rec else []
    ok = rec is not None and len(crossings) == N and W < 4.0 * math.pi + 0.1
    (outdir / "geodesic.svg").write_text(
        trace_figure_svg(surf, trace, timestamp=timestamp)
    )
    payload = {
        "family": cfg.to_dict(),
        "joins": surf.joins,
        "area": A,
        "willmore": W,
        "willmore_minus_4pi": W - 4.0 * math.pi,
        "geodesic": {
            "b": sol.b,
            "c": sol.c,
            "crossings": len(crossings),
            "closed": rec is not None,
            "length": trace_length(trace, (0.0, rec.period)) if rec else math.nan,
        },
    }
    return _summary("glued", payload, ok), ok


def _run_glued(params, tol, outdir, rng, timestamp):
    kind = params.get("kind", "cylinder")
    if kind == "cylinder":
        return _glued_cylinder(params, tol, outdir, timestamp)
    if kind == "spheroid-band":
        return _glued_band(params, tol, outdir, timestamp)
    raise ConfigError(f"unknown glued kind {kind!r}")


def _run_tiling(params, tol, outdir, rng, timestamp):
    N = int(params.get("N", 3))
    eps = float(params.get("eps", 0.2))
    nx, ny = _parse_grid(params.get("grid", "2048x1024"))
    sol, surf, trace = solve_for_geodesic(
        N, eps, shoot_tol=tol["shoot_tol"], closure_tol=tol["closure_tol"]
    )
    regions = decompose_regions(surf, trace, grid=(nx, ny))
    deco = regions[0].decomposition
    rows = []
    checks_ok = len(regions) == N + 2
    worst_residual = 0.0
    for r in regions:
        kda, asum, res, checks = region_gauss_bonnet(
            r, xi=deco.xi, tol=tol["gauss_bonnet_residual_tol"]
        )
        worst_residual = max(worst_residual, res)
        angle_ok = all(c.exterior >= -tol["angle_tol"] for c in r.corners)
        checks_ok = checks_ok and all(checks.values()) and angle_ok
        rows.append((r.id, r.area, kda, r.willmore, r.N_i, r.boundary_length,
                     res, angle_ok))
    comp = complement_energy_audit(regions, tol=tol["complement_tol"])
    comp_ok = all(rep.passed for rep in comp)
    partition = abs(sum(r.area for r in regions) - deco.total_area)
    handshake = abs(sum(r.boundary_length for r in regions) - 2.0 * sol.length)
    ok = checks_ok and comp_ok and partition / deco.total_area < 1e-3
    export_region_table(regions, outdir / "regions.csv")
    write_csv(
        outdir / "complements.csv",
        ["name", "lhs", "rhs", "margin", "pass"],
        [(rep.name, rep.lhs, rep.rhs, rep.margin, rep.passed) for rep in comp],
    )
    if params.get("masks"):
        mask_to_pgm(deco.blocked, outdir / "blocked.pgm")
        for r in regions:
            mask_to_pgm(r.mask, outdir / f"region_{r.id}.pgm")
    payload = {
        "N": N,
        "eps": eps,
        "grid": [nx, ny],
        "regions": len(regions),
        "xi": deco.xi,
        "worst_gauss_bonnet_residual": worst_residual,
        "partition_defect": partition,
        "handshake_defect": handshake,
        "total_willmore": deco.total_willmore,
        "complement_audits_pass": comp_ok,
    }
    return _summary("tiling", payload, ok), ok


def _audit_surfaces(tol):
    spheroid = spheroid_surface(4.038)
    cyl = build_glued_family(GluedFamilyConfig(a=0.1))
    sol, _, _ = solve_for_geodesic(3, 0.0045, shoot_tol=tol["shoot_tol"])
    band = build_glued_family(
        GluedFamilyConfig(a=0.005, neck_kind="spheroid-band", b=sol.b)
    )
    return [unit_sphere(), spheroid, cyl, band]


def _run_audits(params, tol, outdir, rng, timestamp):
    suite = params.get("suite", "all")
    count = int(params.get("count", 50))
    reports = []
    payload = {}
    ok = True
    if suite in ("section2", "all"):
        surfaces = _audit_surfaces(tol)
        caps = random_caps(surfaces, count, seed=int(rng.integers(1 << 31)))
        spec = _quad_spec(tol)
        for i, cap in enumerate(caps):
            reports.append(diameter_bound_audit(cap, spec, tol["audit_tol"]))
            reports.append(interior_point_audit(cap, tol=tol["audit_tol"]))
            lo, hi = cap.u2_lo, cap.u2_hi
            x0 = lo + (hi - lo) * (0.2 + 0.6 * float(rng.random()))
            reports.append(monotonicity_audit(cap, x0, tol=tol["audit_tol"]))
        ok = ok and all(r.passed for r in reports)
        payload["section2_count"] = len(reports)
    if suite in ("ratio", "all"):
        family = []
        for a in (0.2, 0.1, 0.05, 0.02):
            surf = build_glued_family(
                GluedFamilyConfig(a=a, cylinder_height="2a^2")
            )
            family.append(
                {
                    "label": f"vanishing-cylinder a={a}",
                    "surface": surf,
                    "geodesic_length": 2.0 * math.pi * a,
                }
            )
        family.append(
            {"label": "round-sphere-equator", "surface": unit_sphere(),
             "geodesic_length": 2.0 * math.pi}
        )
        table = length_energy_ratio(family)
        payload["ratio_table"] = table["rows"]
        payload["min_ratio"] = table["min_ratio"]
        ok = ok and all(
            (row["vacuous"] or row["ratio"] > 0.0) for row in table["rows"]
        )
    if suite in ("injectivity", "all"):
        recs = [
            injectivity_bound_report(unit_sphere(), 2.0 * math.pi),
            injectivity_bound_report(
                build_glued_family(GluedFamilyConfig(a=0.05)),
                2.0 * math.pi * 0.05,
            ),
            injectivity_bound_report(spheroid_surface(4.038), math.nan),
        ]
        payload["injectivity"] = recs
        ok = ok and math.isclose(recs[0]["curvature_term"], math.pi,
                                 rel_tol=1e-6)
    if reports:
        write_csv(
            outdir / "audits.csv",
            ["name", "surface", "lhs", "rhs", "margin", "pass", "tolerance"],
            [
                (r.name, r.inputs.get("surface", ""), r.lhs, r.rhs, r.margin,
                 r.passed, r.tolerance)
                for r in reports
            ],
        )
        payload["failed"] = [r.name for r in reports if not r.passed]
    return _summary("audits", payload, ok), ok


def _run_toro(params, tol, outdir, rng, timestamp):
    n_pts = int(params.get("points", 1000))
    eps = float(params.get("eps", 1e-3))
    patch = toro_patch()
    pts = []
    while len(pts) < n_pts:
        x, y = rng.uniform(-0.5, 0.5, 2)
        if 1e-4 < math.hypot(x, y) < 0.5:
            pts.append((float(x), float(y)))
    fd_worst = patch.finite_difference_check(pts)
    ladder_pos = [float(toro_curvature(x, 0.0)[0]) for x in (1e-2, 1e-3, 1e-4)]
    ladder_neg = [float(toro_curvature(0.0, y)[0]) for y in (1e-2, 1e-3, 1e-4)]
    x = 0.1
    _, _, hess = toro_curvature(x, 0.0)
    det = float(hess[0] * hess[2] - hess[1] ** 2)
    det_closed = (1.0 / (x * x * math.log(x) ** 2)) * (1.0 - 1.0 / math.log(x))
    _, Wphys, maxK, minK = graph_energy(
        patch, r_lo=1e-4, r_hi=0.1, grid=(128, 256), panel_breaks=(3e-4, 1e-3, 1e-2)
    )
    ok = (
        fd_worst < 1e-6
        and ladder_pos[0] > 0
        and all(b > a for a, b in zip(ladder_pos, ladder_pos[1:]))
        and ladder_neg[0] < 0
        and all(b < a for a, b in zip(ladder_neg, ladder_neg[1:]))
        and abs(det - det_closed) < 1e-10 * abs(det_closed)
        and maxK > 1.0 / eps
        and minK < -1.0 / eps
    )
    payload = {
        "fd_worst_relative": fd_worst,
        "K_on_x_axis": ladder_pos,
        "K_on_y_axis": ladder_neg,
        "det_hessian_at_(0.1,0)": det,
        "det_closed_form": det_closed,
        "window_willmore": Wphys,
        "max_K": maxK,
        "min_K": minK,
        "curvature_exceeds": 1.0 / eps,
    }
    return _summary("toro", payload, ok), ok


def _run_invert(params, tol, outdir, rng, timestamp):
    count = int(params.get("count", 20))
    worst_sphere = 0.0
    worst_height = 0.0
    worst_length = 0.0
    bound_ok = True
    for _ in range(count):
        lam = 0.02 + 0.28 * float(rng.random())
        delta = 0.02 + 0.28 * float(rng.random())
        cfg = InversionConfig(lam)
        rr = delta * np.sqrt(rng.random(200))
        th = rng.random(200) * 2.0 * math.pi
        disk = np.stack([rr * np.cos(th), rr * np.sin(th), np.zeros(200)], axis=1)
        img = invert_points(disk, cfg)
        dev = np.abs(np.linalg.norm(img - np.array([0.0, 0.0, 1.0]), axis=1) - 1.0)
        worst_sphere = max(worst_sphere, float(np.max(dev)))
        thr = cap_height_threshold(lam, delta)
        worst_height = max(worst_height, float(np.max(thr - img[:, 2])))
        m = 4096
        phi = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        circ = np.stack(
            [delta * np.cos(phi), delta * np.sin(phi), np.zeros(m)], axis=1
        )
        ic = invert_points(circ, cfg)
        poly = float(
            np.sum(np.linalg.norm(np.diff(np.vstack([ic, ic[:1]]), axis=0), axis=1))
        )
        chord_factor = math.sin(math.pi / m) / (math.pi / m)
        worst_length = max(
            worst_length,
            abs(poly - inverted_circle_length(lam, delta) * chord_factor),
        )
        far = rng.normal(size=(100, 3))
        far /= np.linalg.norm(far, axis=1)[:, None]
        far = far * (delta + np.abs(rng.normal(size=(100, 1)))) - lam * np.array(
            [0.0, 0.0, 1.0]
        )
        imgf = invert_points(far, cfg)
        bound_ok = bound_ok and bool(
            np.all(np.linalg.norm(imgf, axis=1) <= 2.0 * lam / delta + 1e-12)
        )
    ok = worst_sphere < 1e-12 and worst_height < 1e-12 and worst_length < 1e-10
    payload = {
        "count": count,
        "max_sphere_deviation": worst_sphere,
        "max_cap_height_violation": worst_height,
        "max_circle_length_error": worst_length,
        "far_points_inside_ball": bound_ok,
        "I_of_origin": list(invert_points([[0.0, 0.0, 0.0]],
                                          InversionConfig(0.2))[0]),
    }
    return _summary("invert", payload, ok and bound_ok), ok and bound_ok


def _run_csf(params, tol, outdir, rng, timestamp):
    t_end = float(params.get("t_end", 3.0))
    u2_offset = float(params.get("u2_offset", 0.25))
    m = int(params.get("samples", 96))
    dumb = RevolutionSurface(ProfileCurve([dumbbell_profile()]), name="dumbbell")
    results = {}
    ok = True

    neck = parallel_curve(dumb, 0.0, m=64)
    res = evolve(dumb, neck, 10.0, FlowPolicy(convergence_tol=0.0))
    drift = float(np.max(np.abs(res.final.samples[:, 1])))
    results["neck_stationary_drift"] = drift
    ok = ok and drift < 1e-6

    off = parallel_curve(dumb, u2_offset, m=m)
    res = evolve(dumb, off, t_end)
    results["offset_converged"] = res.converged
    results["offset_final_max_kappa"] = float(np.max(res.final.kappa_g))
    results["length_monotone"] = bool(np.all(np.diff(res.lengths) <= 1e-12))
    ok = ok and res.converged and results["length_monotone"]
    snap_rows = []
    for i, snap in enumerate(res.snapshots):
        (outdir / f"csf_snapshot_{i:02d}.svg").write_text(
            flow_figure_svg(dumb, snap, timestamp=timestamp)
        )
        for j, (u1, u2) in enumerate(snap.samples):
            snap_rows.append((i, float(snap.time), j, float(u1), float(u2)))
    write_csv(outdir / "csf_snapshots.csv",
              ["snapshot", "time", "sample", "u1", "u2"], snap_rows)

    sph = unit_sphere()
    lat = evolve(sph, parallel_curve(sph, 0.3, m=96), 10.0,
                 FlowPolicy(shrink_floor_frac=0.5))
    results["latitude_shrinking_flag"] = lat.shrinking
    results["latitude_lengths_monotone"] = bool(
        np.all(np.diff(lat.lengths) <= 1e-12)
    )
    ok = ok and lat.shrinking and results["latitude_lengths_monotone"]

    rec1 = avoidance_harness(
        dumb, parallel_curve(dumb, 0.25, m=64), parallel_curve(dumb, 0.0, m=64),
        1.0, c2_stationary=True,
    )
    rec2 = avoidance_harness(
        dumb, parallel_curve(dumb, 0.25, m=64), parallel_curve(dumb, -0.25, m=64),
        1.0,
    )
    results["avoidance_vs_neck_min_d2"] = rec1.min_over_time
    results["avoidance_symmetric_min_d2"] = rec2.min_over_time
    ok = ok and rec1.min_over_time > 0.0 and rec2.min_over_time > 0.0
    try:
        avoidance_harness(dumb, parallel_curve(dumb, 0.2, m=64),
                          parallel_curve(dumb, 0.2, m=64), 0.5)
        results["identical_curves_rejected"] = False
        ok = False
    except ValueError:
        results["identical_curves_rejected"] = True
    return _summary("csf", results, ok), ok


_RUNNERS = {
    "spheroid": _run_spheroid,
    "glued": _run_glued,
    "tiling": _run_tiling,
    "audits": _run_audits,
    "toro": _run_toro,
    "invert": _run_invert,
    "csf": _run_csf,
}


# -- argument handling -------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="georev",
        description="Workbench for geodesics and curvature energies on "
                    "surfaces of revolution",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON file with the command parameter block")
    common.add_argument("--out", type=Path, default=Path("georev-out"))
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol-scale", type=float, default=1.0)
    common.add_argument("--no-timestamp", action="store_true")

    sp = sub.add_parser("spheroid", parents=[common])
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    gl = sub.add_parser("glued", parents=[common])
    gl.add_argument("--a", type=float, default=None)
    gl.add_argument("--kind", choices=["cylinder", "spheroid-band"], default=None)
    gl.add_argument("--cyl-height", dest="cyl_height", default=None)
    gl.add_argument("--N", type=int, default=None)
    ti = sub.add_parser("tiling", parents=[common])
    ti.add_argument("--N", type=int, default=None)
    ti.add_argument("--eps", type=float, default=None)
    ti.add_argument("--grid", default=None)
    ti.add_argument("--masks", action="store_true", default=None)
    au = sub.add_parser("audits", parents=[common])
    au.add_argument("--suite", choices=["section2", "ratio", "injectivity", "all"],
                    default=None)
    au.add_argument("--count", type=int, default=None)
    to = sub.add_parser("toro", parents=[common])
    to.add_argument("--points", type=int, default=None)
    to.add_argument("--eps", type=float, default=None)
    iv = sub.add_parser("invert", parents=[common])
    iv.add_argument("--count", type=int, default=None)
    cs = sub.add_parser("csf", parents=[common])
    cs.add_argument("--t-end", dest="t_end", type=float, default=None)
    sub.add_parser("all", parents=[common])
    return p


def _parse_grid(txt):
    """(nx, ny) from '<nx>x<ny>', both at least 1."""
    try:
        nx, ny = (int(v) for v in str(txt).lower().split("x"))
    except ValueError:
        nx = ny = 0
    if nx < 1 or ny < 1:
        raise ConfigError(f"grid must be <int>x<int>, both >= 1, got {txt!r}")
    return nx, ny


def _resolve_params(args):
    command = args.command
    params = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(loaded) - _ALLOWED_PARAMS[command]
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {sorted(unknown)}"
            )
        params.update(loaded)
    for key in _ALLOWED_PARAMS[command]:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    for key in _COUNTS:
        if key in params:
            try:
                n = int(params[key])
            except (TypeError, ValueError):
                n = 0
            if n < 1:
                raise ConfigError(f"{key} must be an integer >= 1, got {params[key]!r}")
    for key, (lo, hi) in _REAL_RANGE.get(command, {}).items():
        if key in params:
            try:
                x = float(params[key])
            except (TypeError, ValueError):
                x = math.nan
            if not (lo < x and (hi is None or x < hi)):
                span = f"> {lo:g}" if hi is None else f"in ({lo:g}, {hi:g})"
                raise ConfigError(f"{key} must be a number {span}, got {params[key]!r}")
    if "grid" in params:
        _parse_grid(params["grid"])
    return params


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args)
    except ConfigError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tol = _tolerances(args.tol_scale)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "params": {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in sorted(params.items())},
        "seed": args.seed,
        "tol_scale": args.tol_scale,
        "no_timestamp": bool(args.no_timestamp),
        "tolerances": tol,
    }
    write_json(outdir / "manifest.json", manifest)
    timestamp = not args.no_timestamp

    commands = list(_RUNNERS) if args.command == "all" else [args.command]
    all_ok = True
    try:
        for cmd in commands:
            cmd_out = outdir / cmd if args.command == "all" else outdir
            cmd_out.mkdir(parents=True, exist_ok=True)
            rng = np.random.default_rng(args.seed)
            summary, ok = _RUNNERS[cmd](params if cmd == args.command else {},
                                        tol, cmd_out, rng, timestamp)
            write_json(cmd_out / "summary.json", summary)
            status = "pass" if ok else "FAIL"
            print(f"[{status}] {cmd} -> {cmd_out / 'summary.json'}")
            all_ok = all_ok and ok
    except (AvoidanceViolation, ConfigError) as exc:
        write_json(outdir / "error.json",
                   {"error": str(exc), "command": args.command})
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric failures become diagnostics, not tracebacks
        write_json(
            outdir / "error.json",
            {"error": str(exc), "type": type(exc).__name__,
             "command": args.command},
        )
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
