"""Per-layer metrics: which span, leaf group or counter each one reads.

Names are ``<module>.<function>.<what>``: ``calls`` counts spans, ``ms`` is
busy time (outermost spans of that name), ``self_ms`` is busy time minus
child spans and leaf calls.  Counts such as steps and crossings are read from
the objects the traced functions return.
"""

from __future__ import annotations

import time

import numpy as np

# (metric, unit, source, field); source is a span name, a leaf group, a
# counter, or "derived"
PER_LAYER = (
    ("numerics.integrate_1d.calls", "count", "numerics.integrate_1d", "calls"),
    ("numerics.integrate_1d.ms", "ms", "numerics.integrate_1d", "ms"),
    ("numerics.find_root.calls", "count", "numerics.find_root", "calls"),
    ("numerics.find_root.ms", "ms", "numerics.find_root", "ms"),
    ("surfaces.profile.array_calls", "count", "surfaces.profile", "array_calls"),
    ("surfaces.profile.scalar_calls", "count", "surfaces.profile", "scalar_calls"),
    ("surfaces.profile.ms", "ms", "surfaces.profile", "leaf_ms"),
    ("surfaces.profile_us.single_segment", "us", "derived", None),
    ("surfaces.profile_us.multi_segment", "us", "derived", None),
    ("surfaces.curvature_grids.calls", "count",
     "surfaces.RevolutionSurface.curvature_grids", "calls"),
    ("surfaces.curvature_grids.ms", "ms",
     "surfaces.RevolutionSurface.curvature_grids", "ms"),
    ("surfaces.area_and_willmore.calls", "count",
     "surfaces.RevolutionSurface.area_and_willmore", "calls"),
    ("surfaces.area_and_willmore.ms", "ms",
     "surfaces.RevolutionSurface.area_and_willmore", "ms"),
    ("surfaces.diameter_of.ms", "ms", "surfaces.RevolutionSurface.diameter_of", "ms"),
    ("geodesics.shoot.calls", "count", "geodesics.shoot", "calls"),
    ("geodesics.shoot.ms", "ms", "geodesics.shoot", "ms"),
    ("geodesics.shoot.steps", "count", "counter", None),
    ("geodesics.detect_self_intersections.ms", "ms",
     "geodesics.detect_self_intersections", "ms"),
    ("geodesics.detect_self_intersections.crossings", "count", "counter", None),
    ("geodesics.closure_check.ms", "ms", "geodesics.closure_check", "ms"),
    ("geodesics.trace_length.ms", "ms", "geodesics.trace_length", "ms"),
    ("geodesics.trace_eval.calls", "count", "geodesics.trace_eval", "calls"),
    ("geodesics.trace_eval.ms", "ms", "geodesics.trace_eval", "leaf_ms"),
    ("spheroid.eval_Ic.calls", "count", "spheroid.eval_Ic", "calls"),
    ("spheroid.eval_Ic.ms", "ms", "spheroid.eval_Ic", "ms"),
    ("spheroid.solve_for_geodesic.self_ms", "ms", "spheroid.solve_for_geodesic",
     "self_ms"),
    ("tiling.decompose_regions.calls", "count", "tiling.decompose_regions", "calls"),
    ("tiling.decompose_regions.ms", "ms", "tiling.decompose_regions", "ms"),
    ("tiling.blocked_cells", "count", "counter", None),
    ("tiling.band_row_ratio", "1", "derived", None),
    ("tiling.region_gauss_bonnet.ms", "ms", "tiling.region_gauss_bonnet", "ms"),
    ("tiling.complement_energy_audit.ms", "ms", "tiling.complement_energy_audit",
     "ms"),
    ("flow.evolve.calls", "count", "flow.evolve", "calls"),
    ("flow.evolve.ms", "ms", "flow.evolve", "ms"),
    ("flow.evolve.steps", "count", "counter", None),
    ("flow.step_us", "us", "derived", None),
    ("flow.min_dt", "1", "counter", None),
    ("flow.avoidance_harness.ms", "ms", "flow.avoidance_harness", "ms"),
    ("flow.avoidance_harness.steps", "count", "counter", None),
    ("flow.curvature_velocity.calls", "count", "flow.curvature_velocity", "calls"),
    ("flow.curvature_velocity.ms", "ms", "flow.curvature_velocity", "ms"),
    ("audits.diameter_bound_audit.ms", "ms", "audits.diameter_bound_audit", "ms"),
    ("audits.interior_point_audit.ms", "ms", "audits.interior_point_audit", "ms"),
    ("audits.monotonicity_audit.ms", "ms", "audits.monotonicity_audit", "ms"),
    ("glued.build_glued_family.calls", "count", "glued.build_glued_family", "calls"),
    ("glued.build_glued_family.ms", "ms", "glued.build_glued_family", "ms"),
    ("patches.graph_energy.ms", "ms", "patches.graph_energy", "ms"),
    ("patches.invert_points.ms", "ms", "patches.invert_points", "ms"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
    ("report.write_csv.ms", "ms", "report.write_csv", "ms"),
    ("report.write_json.ms", "ms", "report.write_json", "ms"),
    ("report.trace_figure_svg.ms", "ms", "report.trace_figure_svg", "ms"),
    ("trace.overhead_ms", "ms", "derived", None),
    ("trace.spans", "count", "derived", None),
)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _on_shoot(trace, c):
    _add(c, "geodesics.shoot.steps", len(trace.ts))


def _on_crossings(crossings, c):
    _add(c, "geodesics.detect_self_intersections.crossings", len(crossings))


def _on_tiling(regions, c):
    blocked = regions[0].decomposition.blocked  # rows are u2, columns u1
    _add(c, "tiling.blocked_cells", int(np.count_nonzero(blocked)))
    _add(c, "tiling.band_rows", int(np.count_nonzero(blocked.any(axis=1))))
    _add(c, "tiling.rows", blocked.shape[0])


def _on_evolve(res, c):
    _add(c, "flow.evolve.steps", len(res.times) - 1)
    if len(res.times) > 1:
        gap = float(np.min(np.diff(res.times)))
        c["flow.min_dt"] = min(c.get("flow.min_dt", gap), gap)


def _on_avoidance(rec, c):
    _add(c, "flow.avoidance_harness.steps", len(rec.times) - 1)


OBSERVERS = {
    "geodesics.shoot": _on_shoot,
    "geodesics.detect_self_intersections": _on_crossings,
    "tiling.decompose_regions": _on_tiling,
    "flow.evolve": _on_evolve,
    "flow.avoidance_harness": _on_avoidance,
}


def profile_us(profile, m=96, rounds=50, repeats=5):
    """µs per array call of the eight profile evaluators at m points, median of repeats."""
    lo, hi = profile.t_min, profile.t_max
    t = lo + (np.arange(m) + 0.5) * (hi - lo) / m
    fns = [profile.h, profile.g, profile.dh, profile.dg, profile.d2h, profile.d2g,
           profile.speed, profile.dspeed]
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(rounds):
            for f in fns:
                f(t)
        per_call.append((time.perf_counter() - t0) / (rounds * len(fns)))
    return float(np.median(per_call)) * 1e6


def per_layer_metrics(tracer, extra):
    """Every PER_LAYER metric as {name: {"value", "unit"}}; 0 where a layer did no work."""
    spans = tracer.span_stats()
    out = {}
    for name, unit, source, field in PER_LAYER:
        if source == "counter":
            value = tracer.counters.get(name, 0)
        elif source == "derived":
            value = extra.get(name, 0)
        elif source in tracer.leaf:
            scalar, array, busy = tracer.leaf[source]
            value = {"array_calls": array, "scalar_calls": scalar,
                     "calls": scalar + array, "leaf_ms": busy * 1e3}[field]
        else:
            calls, busy, self_s = spans.get(source, (0, 0.0, 0.0))
            value = {"calls": calls, "ms": busy * 1e3, "self_ms": self_s * 1e3}[field]
        out[name] = {"value": value, "unit": unit}
    c = tracer.counters
    evolve_steps = c.get("flow.evolve.steps", 0)
    if evolve_steps:
        out["flow.step_us"]["value"] = spans["flow.evolve"][1] * 1e6 / evolve_steps
    if c.get("tiling.rows"):
        out["tiling.band_row_ratio"]["value"] = c["tiling.band_rows"] / c["tiling.rows"]
    return out
