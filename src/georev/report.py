"""Deterministic artifact emission: JSON summaries, CSV tables, SVG figures.

Figures are plain standalone SVG (no plotting dependency): an orthographic
3D projection of the surface wireframe with curves drawn on top.  Output is
byte-deterministic for fixed input; the only run-dependent content is an
optional timestamp comment in the SVG header, which can be disabled.
"""

from __future__ import annotations

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

# every figure: the orthographic view from elevation 22 and azimuth -60
# degrees, 480 px wide, over a wireframe of 12 meridians and 13 parallels
_ELEV = math.radians(22.0)
_AZIM = math.radians(-60.0)
_RIGHT = np.array([-math.sin(_AZIM), math.cos(_AZIM), 0.0])
_UP = np.array([-math.sin(_ELEV) * math.cos(_AZIM), -math.sin(_ELEV) * math.sin(_AZIM),
                math.cos(_ELEV)])
_SVG_WIDTH = 480
_N_MERIDIANS, _N_PARALLELS, _WIRE_SAMPLES = 12, 13, 160
_TRACE_SAMPLES = 2048


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header, rows):
    """Rows as csv's default dialect writes them, each field formatted by str.

    A float's str is its shortest round-trip repr.  No field is quoted: one
    that would need quotes (a comma, a quote, CR or LF, or a lone empty
    field) or is None, which csv writes as an empty field, raises ValueError.
    """
    rows = [tuple(header), *map(tuple, rows)]
    text = "\r\n".join([",".join(map(str, row)) for row in rows])
    breaks = len(rows) - 1
    if ('"' in text or text.count("\r") != breaks or text.count("\n") != breaks
            or text.count(",") != sum(max(len(row) - 1, 0) for row in rows)
            or ("None" in text and any(None in row for row in rows))
            or ("",) in rows):
        raise ValueError("a csv field needs quoting or is None")
    with open(path, "w", newline="") as fh:
        fh.write(text)
        fh.write("\r\n")


def project_points(pts):
    """Orthographic screen coordinates (m, 2) of ambient points (m, 3)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.stack([pts @ _RIGHT, pts @ _UP], axis=1)


def _fmt(v):
    return f"{v:.4f}"


def _polyline(screen, stroke, width, opacity=1.0):
    xy = screen.ravel().tolist()
    pts = " ".join(["%.4f,%.4f"] * (len(xy) // 2)) % tuple(xy)
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" '
        f'stroke-opacity="{opacity}" points="{pts}" />'
    )


def _svg_document(elements, extent, timestamp=True):
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{int(_SVG_WIDTH * h / w)}" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(w)} {_fmt(h)}">'
    )
    # flip the y axis so screen-up is positive
    header.append(f'<g transform="translate(0,{_fmt(ymin + ymax)}) scale(1,-1)">')
    footer = ["</g>", "</svg>", ""]
    return "\n".join(header + list(elements) + footer)


def _wireframe_elements(surface):
    els = []
    lo, hi = surface.u2_range
    extent = [math.inf, -math.inf, math.inf, -math.inf]

    def track(screen):
        extent[0] = min(extent[0], float(np.min(screen[:, 0])))
        extent[1] = max(extent[1], float(np.max(screen[:, 0])))
        extent[2] = min(extent[2], float(np.min(screen[:, 1])))
        extent[3] = max(extent[3], float(np.max(screen[:, 1])))

    for k in range(_N_MERIDIANS):
        u1 = 2.0 * math.pi * k / _N_MERIDIANS
        u2 = np.linspace(lo, hi, _WIRE_SAMPLES)
        pts = surface.point(np.full(_WIRE_SAMPLES, u1), u2)
        screen = project_points(pts)
        track(screen)
        els.append(_polyline(screen, "#bbbbbb", 0.004, 0.9))
    for k in range(1, _N_PARALLELS + 1):
        u2 = lo + (hi - lo) * k / (_N_PARALLELS + 1)
        u1 = np.linspace(0.0, 2.0 * math.pi, _WIRE_SAMPLES + 1)
        pts = surface.point(u1, np.full(_WIRE_SAMPLES + 1, u2))
        screen = project_points(pts)
        track(screen)
        els.append(_polyline(screen, "#bbbbbb", 0.004, 0.9))
    return els, ((extent[0], extent[1]), (extent[2], extent[3]))


def trace_figure_svg(surface, trace, timestamp=True):
    """Orthographic figure of a geodesic trace, over one period when it is
    certified closed, drawn over the surface wireframe."""
    els, extent = _wireframe_elements(surface)
    period = trace.closure.period if trace.closure else trace.t_end
    ts = np.linspace(0.0, period, _TRACE_SAMPLES)
    ys = trace.eval(ts)
    pts = surface.point(ys[0], ys[1])
    screen = project_points(pts)
    els.append(_polyline(screen, "#202020", 0.012))
    for cr in trace.crossings:
        p = surface.point(cr.u1, cr.u2)
        s = project_points(p)[0]
        els.append(
            f'<circle cx="{_fmt(s[0])}" cy="{_fmt(s[1])}" r="0.02" '
            f'fill="none" stroke="#aa2222" stroke-width="0.008" />'
        )
    return _svg_document(els, extent, timestamp)


def flow_figure_svg(surface, curve, timestamp=True):
    """One CSF snapshot drawn over the surface wireframe."""
    els, extent = _wireframe_elements(surface)
    samples = np.vstack([curve.samples, curve.samples[:1]
                         + np.array([2.0 * math.pi * curve.winding, 0.0])])
    pts = surface.point(samples[:, 0], samples[:, 1])
    screen = project_points(pts)
    els.append(_polyline(screen, "#99262b", 0.012))
    return _svg_document(els, extent, timestamp)
