"""Geodesic shooting on surfaces of revolution.

Integrates the geodesic system

    u1'' + 2 (h'/h) u1' u2' = 0
    u2'' - (h h'/gamma^2) u1'^2 + (gamma'/gamma) u2'^2 = 0

(coefficients from ``ProfileCurve.christoffel``) with an adaptive explicit
Runge-Kutta scheme, monitoring (not enforcing) the two conserved quantities
of a unit-speed Clairaut geodesic: the speed E u1'^2 + G u2'^2 = 1 and the
Clairaut constant c = u1' h(u2)^2.  The angle u1 is tracked in the universal
cover (never reduced mod 2 pi inside the integrator).

Closure is certified by position and tangent defects at a candidate period;
self-intersections are located by a sweep over the sampled polyline in the
(u1 mod 2 pi, u2) cylinder and refined to solver accuracy by a 2D Newton
iteration on the two curve times.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp, trapezoid

__all__ = [
    "GeodesicState",
    "GeodesicTrace",
    "Crossing",
    "ClosureRecord",
    "IntegrationError",
    "NeedsMoreTimeError",
    "DegenerateCrossingWarning",
    "shoot",
    "clairaut_state",
    "parallel_state",
    "closure_check",
    "detect_self_intersections",
    "trace_length",
]

DEFAULT_SHOOT_TOL = 1e-12
DEFAULT_CLOSURE_TOL = 1e-6
ANGLE_FLOOR = 1e-3


class IntegrationError(RuntimeError):
    """Step-size underflow or solver failure; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NeedsMoreTimeError(ValueError):
    """The trace does not span the candidate closure period."""


class DegenerateCrossingWarning(UserWarning):
    pass


@dataclass(frozen=True)
class GeodesicState:
    t: float
    u1: float
    u2: float
    du1: float
    du2: float

    def as_array(self):
        return np.array([self.u1, self.u2, self.du1, self.du2])


@dataclass(frozen=True)
class Crossing:
    t: float
    s: float
    u1: float  # mod 2 pi
    u2: float
    angle: float  # metric angle between the two branches, in (0, pi)


@dataclass(frozen=True)
class ClosureRecord:
    period: float
    position_defect: float
    tangent_defect: float


@dataclass
class GeodesicTrace:
    """Time-stamped geodesic trajectory with dense interpolation."""

    surface: object
    ts: np.ndarray  # accepted step times
    ys: np.ndarray  # 4 x n states at accepted steps
    clairaut_c: float
    sol: object = None  # dense OdeSolution
    turning_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    closure: ClosureRecord | None = None
    crossings: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def t_end(self):
        return float(self.ts[-1])

    def eval(self, t):
        """Dense state (4,) or (4, n) at arbitrary times within the span."""
        if self.sol is None:
            raise ValueError("trace carries no dense interpolant")
        return self.sol(t)

    def state(self, t):
        y = self.eval(float(t))
        return GeodesicState(float(t), *map(float, y))

    def step_sizes(self):
        return np.diff(self.ts)

    def conservation_drift(self):
        """(max Clairaut residual, max unit-speed residual) at accepted steps."""
        prof = self.surface.profile
        u2, du1, du2 = self.ys[1], self.ys[2], self.ys[3]
        h = np.asarray(prof.h(u2))
        gam = np.asarray(prof.speed(u2))
        clair = np.max(np.abs(du1 * h * h - self.clairaut_c))
        speed = np.max(np.abs(h * h * du1**2 + gam * gam * du2**2 - 1.0))
        return float(clair), float(speed)


def clairaut_state(surface, c, u2=0.0, u1=0.0, sign=1.0):
    """Unit-speed initial state with Clairaut constant c at latitude u2."""
    h = float(surface.profile.h(u2))
    gam = float(surface.profile.speed(u2))
    rad = 1.0 - c * c / (h * h)
    if rad < -1e-14:
        raise ValueError(f"Clairaut constant {c} unreachable at u2={u2} (h={h})")
    du1 = c / (h * h)
    du2 = sign * math.sqrt(max(rad, 0.0)) / gam
    return GeodesicState(0.0, u1, u2, du1, du2)


def parallel_state(surface, u2, u1=0.0):
    """Unit-speed state along the parallel at u2 (a geodesic iff h'(u2) = 0)."""
    h = float(surface.profile.h(u2))
    return GeodesicState(0.0, u1, u2, 1.0 / h, 0.0)


def _rhs(surface):
    christoffel = surface.profile.christoffel

    def rhs(t, y):
        du1, du2 = y[2], y[3]
        _, dh_h, hdh_gg, dgam_gam, _ = christoffel(y[1])
        return (
            du1,
            du2,
            -2.0 * dh_h * du1 * du2,
            hdh_gg * du1 * du1 - dgam_gam * du2 * du2,
        )

    return rhs


class _MeridianSolution:
    """Dense interpolant assembled from the pole-to-pole integration legs."""

    def __init__(self, legs):
        # legs: list of (t_lo, t_hi, u1, sigma, dense_u2, speed_fn)
        self.legs = legs

    def _eval_scalar(self, t):
        t = float(t)
        for t_lo, t_hi, u1, sigma, dense, speed in self.legs:
            if t_lo - 1e-12 <= t <= t_hi + 1e-12:
                u2 = float(dense(min(max(t, t_lo), t_hi))[0])
                return (u1, u2, 0.0, sigma / float(speed(u2)))
        raise ValueError(f"time {t} outside the meridian trace span")

    def __call__(self, t):
        if np.ndim(t) == 0:
            return np.array(self._eval_scalar(t))
        return np.stack([np.array(self._eval_scalar(v)) for v in np.asarray(t)],
                        axis=1)


def _shoot_meridian(surface, init, t_end, tol):
    """Meridian (c = 0): u1 is constant between poles and jumps by pi at each.

    Integrating through the coordinate singularity at h = 0 is avoided by the
    reflection rule: on arrival at a pole the profile parameter reverses and
    the angle picks up pi.
    """
    if not surface.is_closed:
        raise IntegrationError("meridian shooting requires a closed surface")
    prof = surface.profile
    lo, hi = surface.u2_range
    ts = [init.t]
    ys = [[init.u1, init.u2, 0.0, init.du2]]
    legs = []
    t, u1, u2 = init.t, init.u1, init.u2
    sigma = 1.0 if init.du2 >= 0 else -1.0
    guard = 0
    while t < t_end - 1e-13 and guard < 10000:
        guard += 1
        target = hi if sigma > 0 else lo

        def rhs(_t, y, _s=sigma):
            return (_s / float(prof.speed(y[0])),)

        def hit_pole(_t, y, _target=target):
            return y[0] - _target

        hit_pole.terminal = True
        hit_pole.direction = sigma
        res = solve_ivp(
            rhs, (t, t_end), [u2], rtol=tol, atol=tol * 1e-2,
            events=hit_pole, dense_output=True, method="RK45",
        )
        seg_t = res.t
        seg_u2 = res.y[0]
        gam = np.asarray(prof.speed(seg_u2))
        for tt, vv, gg in zip(seg_t[1:], seg_u2[1:], gam[1:]):
            ts.append(float(tt))
            ys.append([u1, float(vv), 0.0, sigma / float(gg)])
        legs.append((t, float(res.t[-1]), u1, sigma, res.sol, prof.speed))
        t = float(res.t[-1])
        u2 = float(res.y[0][-1])
        if res.t_events[0].size:
            u1 += math.pi
            sigma = -sigma
    trace = GeodesicTrace(
        surface,
        np.array(ts),
        np.array(ys).T,
        clairaut_c=0.0,
        sol=_MeridianSolution(legs),
        meta={"meridian": True},
    )
    lam = surface.profile_arclength(lo, hi)
    trace.meta["suggested_period"] = 2.0 * lam
    return trace


def shoot(surface, init, t_end, tol=DEFAULT_SHOOT_TOL, method="RK45"):
    """Integrate the geodesic through ``init`` for time t_end.

    Returns a GeodesicTrace with dense output and the zero-crossing times of
    u2' (latitude turning points) recorded.
    """
    h0 = float(surface.profile.h(init.u2))
    c = init.du1 * h0 * h0
    if abs(c) < 1e-13 and abs(init.du1) < 1e-13:
        return _shoot_meridian(surface, init, t_end, tol)

    turning = []

    def du2_zero(t, y):
        return y[3]

    du2_zero.direction = 0

    res = solve_ivp(
        _rhs(surface),
        (init.t, init.t + t_end),
        [init.u1, init.u2, init.du1, init.du2],
        method=method,
        rtol=tol,
        atol=tol * 1e-2,
        dense_output=True,
        events=du2_zero,
    )
    if not res.success:
        partial = GeodesicTrace(surface, res.t, res.y, c, sol=res.sol)
        raise IntegrationError(f"geodesic integration failed: {res.message}",
                               trace=partial)
    turning = res.t_events[0] if res.t_events else np.empty(0)
    return GeodesicTrace(
        surface, res.t, res.y, c, sol=res.sol, turning_times=np.asarray(turning)
    )


def _wrap_pi(x):
    """Reduce to (-pi, pi]."""
    return np.mod(np.asarray(x) + math.pi, 2.0 * math.pi) - math.pi


def _defects(trace, T):
    y0 = trace.eval(trace.ts[0]) if trace.sol is not None else trace.ys[:, 0]
    yT = trace.eval(trace.ts[0] + T) if trace.sol is not None else None
    if yT is None:
        i = int(np.argmin(np.abs(trace.ts - (trace.ts[0] + T))))
        yT = trace.ys[:, i]
    pos = math.hypot(float(_wrap_pi(yT[0] - y0[0])), float(yT[1] - y0[1]))
    tan = math.hypot(float(yT[2] - y0[2]), float(yT[3] - y0[3]))
    return pos, tan


def closure_check(trace, tol=DEFAULT_CLOSURE_TOL, t_candidate=None):
    """Certify C^1 closure at a candidate period.

    Without an explicit candidate the trace is scanned for near-returns of
    (u1 mod 2 pi, u2, u1', u2').  Returns a ClosureRecord (also stored on the
    trace) or None if no candidate closes within tolerance.
    """
    if t_candidate is None and "suggested_period" in trace.meta:
        t_candidate = trace.meta["suggested_period"]
    span = trace.t_end - float(trace.ts[0])
    if t_candidate is not None:
        if t_candidate > span + 1e-9:
            raise NeedsMoreTimeError(
                f"trace spans {span:.6g} < candidate period {t_candidate:.6g}"
            )
        pos, tan = _defects(trace, t_candidate)
        if pos < tol and tan < tol:
            rec = ClosureRecord(float(t_candidate), pos, tan)
            trace.closure = rec
            return rec
        return None

    if trace.sol is None:
        raise NeedsMoreTimeError("closure scan needs a dense trace")
    y0 = trace.eval(trace.ts[0])
    n = 8192
    ts = np.linspace(trace.ts[0], trace.t_end, n)
    ys = trace.eval(ts)
    d = np.hypot(_wrap_pi(ys[0] - y0[0]), ys[1] - y0[1]) + np.hypot(
        ys[2] - y0[2], ys[3] - y0[3]
    )
    step = ts[1] - ts[0]
    min_period = 16 * step
    cand = None
    for i in range(1, n - 1):
        if ts[i] - ts[0] < min_period:
            continue
        if d[i] <= d[i - 1] and d[i] <= d[i + 1] and d[i] < 0.5:
            cand = ts[i]
            break
    if cand is None:
        return None
    from scipy.optimize import minimize_scalar

    def defect(T):
        p, q = _defects(trace, T)
        return p * p + q * q

    r = minimize_scalar(
        defect, bounds=(cand - trace.ts[0] - 2 * step, cand - trace.ts[0] + 2 * step),
        method="bounded", options={"xatol": 1e-14},
    )
    T = float(r.x)
    pos, tan = _defects(trace, T)
    if pos < tol and tan < tol:
        rec = ClosureRecord(T, pos, tan)
        trace.closure = rec
        return rec
    return None


def trace_length(trace, t_range=None, n_check=2048):
    """Arc length over a time range (unit-speed: the range width).

    The metric speed is also resampled as a cross-check; a drifting speed
    indicates an integration problem and raises.
    """
    lo = float(trace.ts[0]) if t_range is None else float(t_range[0])
    hi = trace.t_end if t_range is None else float(t_range[1])
    if not (trace.ts[0] - 1e-12 <= lo < hi <= trace.t_end + 1e-12):
        raise ValueError("range outside trace span")
    width = hi - lo
    if trace.sol is not None:
        ts = np.linspace(lo, hi, n_check)
        ys = trace.eval(ts)
        prof = trace.surface.profile
        h = np.asarray(prof.h(ys[1]))
        gam = np.asarray(prof.speed(ys[1]))
        speed = np.sqrt(h * h * ys[2] ** 2 + gam * gam * ys[3] ** 2)
        sampled = float(trapezoid(speed, ts))
        if abs(sampled - width) > 1e-6 * max(1.0, width):
            raise IntegrationError(
                f"sampled length {sampled} disagrees with unit-speed width {width}"
            )
    return width


# -- self-intersection extraction ------------------------------------------------


def _segment_hit(p0, p1, q0, q1, slack=1e-4):
    """Parameters (alpha, beta) of the intersection of two planar segments, or None.

    A small slack beyond [0, 1] keeps crossings that sit exactly on a sample
    vertex; the Newton refinement and the deduplication absorb the resulting
    duplicate candidates.
    """
    r = (p1[0] - p0[0], p1[1] - p0[1])
    w = (q1[0] - q0[0], q1[1] - q0[1])
    den = r[0] * w[1] - r[1] * w[0]
    if den == 0.0:
        return None
    dx, dy = q0[0] - p0[0], q0[1] - p0[1]
    alpha = (dx * w[1] - dy * w[0]) / den
    beta = (dx * r[1] - dy * r[0]) / den
    if -slack <= alpha <= 1.0 + slack and -slack <= beta <= 1.0 + slack:
        return alpha, beta
    return None


def _refine_crossing(trace, t_guess, s_guess, k_wind):
    """Newton on F(t, s) = (u1(t) - u1(s) - 2 pi k, u2(t) - u2(s))."""
    t, s = t_guess, s_guess
    two_pi_k = 2.0 * math.pi * k_wind
    for _ in range(30):
        yt = trace.eval(t)
        ys_ = trace.eval(s)
        F = np.array([yt[0] - ys_[0] - two_pi_k, yt[1] - ys_[1]])
        if np.max(np.abs(F)) < 1e-13:
            break
        J = np.array([[yt[2], -ys_[2]], [yt[3], -ys_[3]]])
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        t += float(step[0])
        s += float(step[1])
        if not (trace.ts[0] - 1e-9 <= t <= trace.t_end + 1e-9):
            return None
        if not (trace.ts[0] - 1e-9 <= s <= trace.t_end + 1e-9):
            return None
    else:
        return None
    return t, s


def detect_self_intersections(
    trace, n_samples=4096, angle_floor=ANGLE_FLOOR, period=None
):
    """All transversal self-intersections of a closed trace over one period.

    Crossings are located on the sampled polyline in the (u1 mod 2 pi, u2)
    cylinder (seam handled by duplicating segments shifted by 2 pi), refined
    by Newton on the two times, deduplicated modulo the period, and returned
    with their metric crossing angles.  Near-tangential candidates below
    ``angle_floor`` raise a DegenerateCrossingWarning and are dropped.
    """
    if period is None:
        if trace.closure is None:
            raise ValueError("trace is not certified closed; run closure_check first")
        period = trace.closure.period
    T = float(period)
    t0 = float(trace.ts[0])
    ts = np.linspace(t0, t0 + T, n_samples, endpoint=False)
    ys = trace.eval(ts)
    u1 = ys[0]
    u2 = ys[1]

    # polyline segments (wrapping back to the start point, lifted in u1)
    y_end = trace.eval(t0 + T)
    t_next = np.roll(ts, -1).copy()
    t_next[-1] = t0 + T
    u1n = np.roll(u1, -1).copy()
    u1n[-1] = float(y_end[0])
    u2n = np.roll(u2, -1).copy()
    u2n[-1] = float(y_end[1])

    segs = []  # (x0, y0, x1, y1, i, shift)
    two_pi = 2.0 * math.pi
    for i in range(n_samples):
        a, b = u1[i], u1n[i]
        base = math.floor(min(a, b) / two_pi)
        for k in (base, base + 1):
            sh = -two_pi * k
            x0, x1 = a + sh, b + sh
            if max(x0, x1) < -1e-9 or min(x0, x1) > two_pi + 1e-9:
                continue
            segs.append((min(x0, x1), max(x0, x1), x0, u2[i], x1, u2n[i], i, sh))

    segs.sort(key=lambda s: s[0])
    hits = []
    active = []
    for seg in segs:
        xmin = seg[0]
        active = [s for s in active if s[1] >= xmin]
        for other in active:
            i, j = seg[6], other[6]
            if i == j:
                continue
            di = min((i - j) % n_samples, (j - i) % n_samples)
            if di <= 1:
                continue
            if min(seg[3], seg[5]) > max(other[3], other[5]):
                continue
            if max(seg[3], seg[5]) < min(other[3], other[5]):
                continue
            hit = _segment_hit(
                (seg[2], seg[3]), (seg[4], seg[5]),
                (other[2], other[3]), (other[4], other[5]),
            )
            if hit is None:
                continue
            alpha, beta = hit
            ta = ts[i] + alpha * (t_next[i] - ts[i])
            tb = ts[j] + beta * (t_next[j] - ts[j])
            hits.append((ta, tb))
        active.append(seg)

    crossings = []
    seen = []
    for ta, tb in hits:
        ya, yb = trace.eval(ta), trace.eval(tb)
        k = round((ya[0] - yb[0]) / two_pi)
        ref = _refine_crossing(trace, ta, tb, k)
        if ref is None:
            continue
        t_hi, t_lo = max(ref), min(ref)
        # canonical representative modulo the period
        t_lo_m = t0 + math.fmod(t_lo - t0, T)
        t_hi_m = t0 + math.fmod(t_hi - t0, T)
        a, b = sorted((t_lo_m, t_hi_m))
        if abs(a - b) < 1e-9 * T or abs(abs(a - b) - T) < 1e-9 * T:
            continue
        if any(abs(a - p) < 1e-6 * T and abs(b - q) < 1e-6 * T for p, q in seen):
            continue
        seen.append((a, b))
        y1, y2 = trace.eval(a), trace.eval(b)
        E, _, G = trace.surface.metric_at(float(y1[1]))
        cosang = E * y1[2] * y2[2] + G * y1[3] * y2[3]
        ang = math.acos(max(-1.0, min(1.0, cosang)))
        if ang < angle_floor or ang > math.pi - angle_floor:
            warnings.warn(
                f"near-tangential crossing candidate at times ({a:.6f}, {b:.6f}), "
                f"angle {ang:.2e}",
                DegenerateCrossingWarning,
            )
            continue
        crossings.append(
            Crossing(
                t=a,
                s=b,
                u1=float(np.mod(y1[0], two_pi)),
                u2=float(y1[1]),
                angle=ang,
            )
        )
    crossings.sort(key=lambda cr: cr.t)
    trace.crossings = crossings
    return crossings
