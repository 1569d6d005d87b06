"""Self-intersections by a polyline sweep: the independent oracle for
``georev.geodesics.detect_self_intersections``.

The closed trace is sampled at ``n_samples`` times, the polyline is swept in
the (u1 mod 2 pi, u2) cylinder (segments that cross the seam are duplicated
shifted by 2 pi), candidate hits are refined by Newton on the two curve
times, and pairs are reduced modulo the period and deduplicated.  It uses
no symmetry of the geodesic, only its dense output.

The seam t = 0 = T is handled cyclically: every prefilter carries the same
slack as the segment-hit test, so a crossing at a sample vertex on the seam
is not dropped, and times are reduced and compared modulo T, so one crossing
is not counted as both (0, T/2) and (T/2, T).
"""

from __future__ import annotations

import math

import numpy as np

SLACK = 1e-4  # segment parameters may overshoot [0, 1] by this much


def _segment_hit(p0, p1, q0, q1):
    """Parameters (alpha, beta) of the intersection of two planar segments, or None."""
    r = (p1[0] - p0[0], p1[1] - p0[1])
    w = (q1[0] - q0[0], q1[1] - q0[1])
    den = r[0] * w[1] - r[1] * w[0]
    if den == 0.0:
        return None
    dx, dy = q0[0] - p0[0], q0[1] - p0[1]
    alpha = (dx * w[1] - dy * w[0]) / den
    beta = (dx * r[1] - dy * r[0]) / den
    if -SLACK <= alpha <= 1.0 + SLACK and -SLACK <= beta <= 1.0 + SLACK:
        return alpha, beta
    return None


def _refine(trace, t, s, k_wind):
    """Newton on F(t, s) = (u1(t) - u1(s) - 2 pi k, u2(t) - u2(s))."""
    two_pi_k = 2.0 * math.pi * k_wind
    lo, hi = float(trace.ts[0]) - 1e-9, trace.t_end + 1e-9
    for _ in range(30):
        yt, ys = trace.eval(t), trace.eval(s)
        F = np.array([yt[0] - ys[0] - two_pi_k, yt[1] - ys[1]])
        if np.max(np.abs(F)) < 1e-13:
            return t, s
        J = np.array([[yt[2], -ys[2]], [yt[3], -ys[3]]])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        t += float(step[0])
        s += float(step[1])
        if not (lo <= t <= hi and lo <= s <= hi):
            return None
    return None


def _cyclic_gap(a, b, T):
    d = math.fmod(abs(a - b), T)
    return min(d, T - d)


def polyline_crossings(trace, n_samples=4096, period=None):
    """Sorted (t, s) time pairs, t < s in [t0, t0 + T), of the trace's crossings."""
    T = float(trace.closure.period if period is None else period)
    t0 = float(trace.ts[0])
    two_pi = 2.0 * math.pi
    ts = t0 + T * np.arange(n_samples + 1) / n_samples
    ys = trace.eval(ts)
    u1, u2 = ys[0], ys[1]

    segs = []  # (xmin, xmax, x0, y0, x1, y1, ymin, ymax, i), boxes padded by SLACK
    for i in range(n_samples):
        a, b = u1[i], u1[i + 1]
        pad_x = SLACK * abs(b - a)
        pad_y = SLACK * abs(u2[i + 1] - u2[i])
        base = math.floor(min(a, b) / two_pi)
        for k in (base, base + 1):
            x0, x1 = a - two_pi * k, b - two_pi * k
            if max(x0, x1) + pad_x < 0.0 or min(x0, x1) - pad_x > two_pi:
                continue
            segs.append((min(x0, x1) - pad_x, max(x0, x1) + pad_x, x0, u2[i], x1,
                         u2[i + 1], min(u2[i], u2[i + 1]) - pad_y,
                         max(u2[i], u2[i + 1]) + pad_y, i))

    segs.sort(key=lambda sg: sg[0])
    hits = []
    active = []
    for seg in segs:
        active = [o for o in active if o[1] >= seg[0]]
        for other in active:
            i, j = seg[8], other[8]
            if min((i - j) % n_samples, (j - i) % n_samples) <= 1:
                continue
            if seg[6] > other[7] or seg[7] < other[6]:
                continue
            hit = _segment_hit((seg[2], seg[3]), (seg[4], seg[5]),
                               (other[2], other[3]), (other[4], other[5]))
            if hit is not None:
                alpha, beta = hit
                hits.append((ts[i] + alpha * (ts[i + 1] - ts[i]),
                             ts[j] + beta * (ts[j + 1] - ts[j])))
        active.append(seg)

    pairs = []
    for ta, tb in hits:
        ta = min(max(ta, t0), t0 + T)
        tb = min(max(tb, t0), t0 + T)
        k = round(float(trace.eval(ta)[0] - trace.eval(tb)[0]) / two_pi)
        ref = _refine(trace, ta, tb, k)
        if ref is None:
            continue
        a, b = sorted(t0 + (r - t0) % T for r in ref)
        a, b = (t0 if v >= t0 + T else v for v in (a, b))
        a, b = min(a, b), max(a, b)
        if _cyclic_gap(a, b, T) < 1e-9 * T:
            continue
        if any(min(_cyclic_gap(a, p, T) + _cyclic_gap(b, q, T),
                   _cyclic_gap(a, q, T) + _cyclic_gap(b, p, T)) < 1e-6 * T
               for p, q in pairs):
            continue
        pairs.append((a, b))
    return sorted(pairs)


def same_pairs(found, expected, T, tol=1e-8):
    """Whether two lists of crossing time pairs agree modulo T, in any order."""
    if len(found) != len(expected):
        return False
    left = list(expected)
    for a, b in found:
        for n, (p, q) in enumerate(left):
            if min(_cyclic_gap(a, p, T) + _cyclic_gap(b, q, T),
                   _cyclic_gap(a, q, T) + _cyclic_gap(b, p, T)) < tol:
                del left[n]
                break
        else:
            return False
    return True
