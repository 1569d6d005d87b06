"""Deterministic artifact emission: JSON summaries, CSV tables, SVG figures.

Figures are plain standalone SVG (no plotting dependency): an orthographic
3D projection of the surface wireframe with curves drawn on top.  Output is
byte-deterministic for fixed input; the only run-dependent content is an
optional timestamp comment in the SVG header, which can be disabled.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

__all__ = [
    "write_json",
    "write_csv",
    "project_points",
    "trace_figure_svg",
    "flow_figure_svg",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # csv formats a float with str, which is its shortest round-trip repr
        w.writerows(rows)


def project_points(pts, elev_deg=22.0, azim_deg=-60.0):
    """Orthographic screen coordinates (m, 2) of ambient points (m, 3)."""
    el = math.radians(elev_deg)
    az = math.radians(azim_deg)
    right = np.array([-math.sin(az), math.cos(az), 0.0])
    up = np.array([-math.sin(el) * math.cos(az), -math.sin(el) * math.sin(az),
                   math.cos(el)])
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.stack([pts @ right, pts @ up], axis=1)


def _fmt(v):
    return f"{v:.4f}"


def _polyline(screen, stroke, width, opacity=1.0):
    xy = screen.ravel().tolist()
    pts = " ".join(["%.4f,%.4f"] * (len(xy) // 2)) % tuple(xy)
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" '
        f'stroke-opacity="{opacity}" points="{pts}" />'
    )


def _svg_document(elements, extent, timestamp=True, size=480):
    (xmin, xmax), (ymin, ymax) = extent
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    w = xmax - xmin
    h = ymax - ymin
    header = [
        '<?xml version="1.0" encoding="UTF-8"?>',
    ]
    if timestamp:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        header.append(f"<!-- generated {stamp} -->")
    header.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{int(size * h / w)}" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(w)} {_fmt(h)}">'
    )
    # flip the y axis so screen-up is positive
    header.append(f'<g transform="translate(0,{_fmt(ymin + ymax)}) scale(1,-1)">')
    footer = ["</g>", "</svg>", ""]
    return "\n".join(header + list(elements) + footer)


def _wireframe_elements(surface, elev, azim, n_meridians=12, n_parallels=13,
                        samples=160):
    els = []
    lo, hi = surface.u2_range
    extent = [math.inf, -math.inf, math.inf, -math.inf]

    def track(screen):
        extent[0] = min(extent[0], float(np.min(screen[:, 0])))
        extent[1] = max(extent[1], float(np.max(screen[:, 0])))
        extent[2] = min(extent[2], float(np.min(screen[:, 1])))
        extent[3] = max(extent[3], float(np.max(screen[:, 1])))

    for k in range(n_meridians):
        u1 = 2.0 * math.pi * k / n_meridians
        u2 = np.linspace(lo, hi, samples)
        pts = surface.point(np.full(samples, u1), u2)
        screen = project_points(pts, elev, azim)
        track(screen)
        els.append(_polyline(screen, "#bbbbbb", 0.004, 0.9))
    for k in range(1, n_parallels + 1):
        u2 = lo + (hi - lo) * k / (n_parallels + 1)
        u1 = np.linspace(0.0, 2.0 * math.pi, samples + 1)
        pts = surface.point(u1, np.full(samples + 1, u2))
        screen = project_points(pts, elev, azim)
        track(screen)
        els.append(_polyline(screen, "#bbbbbb", 0.004, 0.9))
    return els, ((extent[0], extent[1]), (extent[2], extent[3]))


def trace_figure_svg(surface, trace, period=None, n=2048, elev=22.0, azim=-60.0,
                     timestamp=True):
    """Orthographic figure of a geodesic trace drawn over the surface wireframe."""
    els, extent = _wireframe_elements(surface, elev, azim)
    if period is None:
        period = trace.closure.period if trace.closure else trace.t_end
    ts = np.linspace(0.0, period, n)
    ys = trace.eval(ts)
    pts = surface.point(ys[0], ys[1])
    screen = project_points(pts, elev, azim)
    els.append(_polyline(screen, "#202020", 0.012))
    for cr in trace.crossings:
        p = surface.point(cr.u1, cr.u2)
        s = project_points(p, elev, azim)[0]
        els.append(
            f'<circle cx="{_fmt(s[0])}" cy="{_fmt(s[1])}" r="0.02" '
            f'fill="none" stroke="#aa2222" stroke-width="0.008" />'
        )
    return _svg_document(els, extent, timestamp)


def flow_figure_svg(surface, curve, elev=22.0, azim=-60.0, timestamp=True):
    """One CSF snapshot drawn over the surface wireframe."""
    els, extent = _wireframe_elements(surface, elev, azim)
    samples = np.vstack([curve.samples, curve.samples[:1]
                         + np.array([2.0 * math.pi * curve.winding, 0.0])])
    pts = surface.point(samples[:, 0], samples[:, 1])
    screen = project_points(pts, elev, azim)
    els.append(_polyline(screen, "#99262b", 0.012))
    return _svg_document(els, extent, timestamp)
