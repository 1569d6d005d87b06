"""Geodesics on surfaces of revolution: the Clairaut quadrature and shooting.

A geodesic with Clairaut constant c != 0 (c = u1' h(u2)^2, conserved)
oscillates between two turning latitudes where h = |c|.  ``clairaut_trace``
builds it from two 1D integrals between them (``_ClairautSolution``): the
half-period and the u1 advance of one half-oscillation, plus series for
u1 and u2 in time; every later half-oscillation is the mirror image of the
first, shifted in u1.  This is the route of the spheroid, tiling and
spheroid-band constructions.

``shoot`` integrates the geodesic system

    u1'' + 2 (h'/h) u1' u2' = 0
    u2'' - (h h'/gamma^2) u1'^2 + (gamma'/gamma) u2'^2 = 0

(coefficients from ``ProfileCurve.christoffel``) with an adaptive explicit
Runge-Kutta scheme (DOP853 by default, Hairer, Norsett & Wanner, Solving
ODEs I, II.5), monitoring (not enforcing) the two conserved quantities: the
speed E u1'^2 + G u2'^2 = 1 and c.  The angle u1 is tracked in the universal
cover (never reduced mod 2 pi inside the integrator).  Shooting traces
parallels and meridians, which have no turning latitudes, and is the
independent route the quadrature is checked against.

Closure is certified by position and tangent defects at a candidate period.
Self-intersections come from the mirror symmetry of a Clairaut geodesic:
the reflection in the meridian through a latitude turning point t_j maps
the geodesic to itself with t -> 2 t_j - t.  Two passages through one point
have opposite u2', so they form such a mirror pair, and each crossing is a
root of u1(t) = u1(t_j) + k pi, found by a bracketed solve on the monotone
u1 (u1' = c / h^2).  Its partner time is 2 t_j - t, reduced modulo the
period.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import solve_ivp, trapezoid
from scipy.optimize import brentq

__all__ = [
    "GeodesicState",
    "GeodesicTrace",
    "Crossing",
    "ClosureRecord",
    "IntegrationError",
    "NeedsMoreTimeError",
    "DegenerateCrossingWarning",
    "shoot",
    "clairaut_trace",
    "clairaut_state",
    "parallel_state",
    "closure_check",
    "detect_self_intersections",
    "trace_length",
]

DEFAULT_SHOOT_TOL = 1e-12
DEFAULT_CLOSURE_TOL = 1e-6
ANGLE_FLOOR = 1e-3
CROSSING_TOL = 1e-8  # the two passages of a crossing meet within this in (u1, u2)
_LENGTH_CHECK_SAMPLES = 2048


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
    ts: np.ndarray  # accepted step times, or samples of a quadrature trace
    ys: np.ndarray  # 4 x n states at ts
    clairaut_c: float
    sol: object = None  # dense interpolant: t -> (4,) or (4, n) states
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

    def conservation_drift(self):
        """(max Clairaut residual, max unit-speed residual) at accepted steps."""
        prof = self.surface.profile
        u2, du1, du2 = self.ys[1], self.ys[2], self.ys[3]
        h, gam = map(np.asarray, prof.metric_factors(u2))
        clair = np.max(np.abs(du1 * h * h - self.clairaut_c))
        speed = np.max(np.abs(h * h * du1**2 + gam * gam * du2**2 - 1.0))
        return float(clair), float(speed)


def clairaut_state(surface, c, u2=0.0, u1=0.0, sign=1.0):
    """Unit-speed initial state with Clairaut constant c at latitude u2."""
    h, gam = map(float, surface.profile.metric_factors(u2))
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


def shoot(surface, init, t_end, tol=DEFAULT_SHOOT_TOL, method="DOP853"):
    """Integrate the geodesic through ``init`` for time t_end.

    Returns a GeodesicTrace with dense output and the zero-crossing times of
    u2' (latitude turning points) recorded.  On a parallel u2' vanishes
    identically, so it has no turning points; its trace is marked
    ``meta["parallel"]``.
    """
    h0 = float(surface.profile.h(init.u2))
    c = init.du1 * h0 * h0
    if abs(c) < 1e-13 and abs(init.du1) < 1e-13:
        return _shoot_meridian(surface, init, t_end, tol)

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
    parallel = not np.any(res.y[3])
    turning = np.empty(0) if parallel else res.t_events[0]
    trace = GeodesicTrace(surface, res.t, res.y, c, sol=res.sol, turning_times=turning)
    if parallel:
        trace.meta["parallel"] = True
    return trace


# -- the Clairaut quadrature ---------------------------------------------------------

_CHEB_DEG = 64  # degree of every series of a quadrature trace
_CHEB_J = np.arange(_CHEB_DEG + 1)
_CHEB_THETA = math.pi * _CHEB_J / _CHEB_DEG
_CHEB_X = np.cos(_CHEB_THETA)  # Chebyshev-Lobatto points, from x = 1 down to -1
# values at _CHEB_X -> Chebyshev coefficients (the discrete cosine transform)
_CHEB_FIT = (2.0 / _CHEB_DEG) * np.cos(np.outer(_CHEB_J, _CHEB_THETA))
_CHEB_FIT[:, [0, -1]] *= 0.5
_CHEB_FIT[[0, -1]] *= 0.5
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_LADDER = 48  # turning-latitude brackets: offsets 2^-48 .. 1 of the way to the end
_NEWTON_STEPS = 6
_EVAL_BLOCK = 1024  # points per block of the Chebyshev matrix in array evaluation
_SAMPLES_PER_HALF = 16  # trace.ts per half-oscillation


def _turning_latitude(prof, c, u2, end):
    """The first latitude from u2 toward ``end`` where h falls to c."""
    pts = u2 + (end - u2) * 2.0 ** -np.arange(_LADDER, -1, -1.0)
    below = np.flatnonzero(np.asarray(prof.h(pts)) <= c)
    if below.size == 0:
        raise ValueError(f"the geodesic with Clairaut constant {c} does not turn "
                         f"between u2={u2} and u2={end}")
    i = int(below[0])
    lo = u2 if i == 0 else float(pts[i - 1])
    return brentq(lambda t: prof.h(t) - c, lo, float(pts[i]), xtol=1e-300,
                  rtol=4.0 * np.finfo(float).eps)


def _series_tail(coef):
    """Largest of the last three coefficients relative to the largest one."""
    coef = np.abs(coef)
    return float(np.max(coef[-3:]) / np.max(coef))


class _ClairautSolution:
    """Dense interpolant of a Clairaut geodesic, built from one half-oscillation.

    Between its turning latitudes a < b, where h = |c|, the unit-speed
    geodesic satisfies (do Carmo, Differential Geometry of Curves and
    Surfaces, 4-4)

        dt/du2 = h gamma / sqrt(h^2 - c^2),
        du1/du2 = c gamma / (h sqrt(h^2 - c^2)).

    With u2 = m + r sin(pi x / 2), m = (a + b) / 2, r = (b - a) / 2, both
    integrands are smooth in x on [-1, 1].  They are sampled at the degree-64
    Chebyshev-Lobatto points and integrated as Chebyshev series, which gives
    the half-period and the u1 advance of a half-oscillation.  Near a
    turning latitude h^2 - c^2 would cancel, so each point takes its distance
    d from the nearer turning latitude from the angle of its Chebyshev point,
    and h - |c| = d q with q the mean of |h'| over that distance (8-point
    Gauss-Legendre); then cos(phi) / sqrt(h - |c|) = cos(psi / 2)
    sqrt(2 / (r q)) with psi = pi (1 -+ x) / 2.  The time series is inverted
    by Newton at the Chebyshev points in time, and u1, u2 are fitted as
    series in the time within a half-oscillation.  Every other
    half-oscillation is the mirror image of the first, shifted in u1 by the
    advance, so the whole geodesic follows from the three series; u1' is
    c / h(u2)^2 exactly.  Time 0 is latitude 0, moving upward.
    """

    def __init__(self, profile, c):
        self.profile = profile
        self.c = c
        cabs = abs(c)
        if not profile.h(0.0) > cabs:
            raise ValueError(f"Clairaut constant {c} unreachable at u2=0")
        a = _turning_latitude(profile, cabs, 0.0, profile.t_min)
        b = _turning_latitude(profile, cabs, 0.0, profile.t_max)
        if any(a < br < b for br in profile.interior_breaks()):
            raise ValueError(f"a profile join lies between the turning latitudes "
                             f"{a} and {b}")
        dh_a, dh_b = profile.jet(a)[1], profile.jet(b)[1]
        if not dh_a > 0.0 > dh_b:
            raise ValueError(f"degenerate turning latitude: h' = {dh_a} at {a}, "
                             f"{dh_b} at {b}")
        m, r = 0.5 * (a + b), 0.5 * (b - a)

        # distance d of each Chebyshev point from the nearer turning latitude
        near_b = _CHEB_THETA <= 0.5 * math.pi
        half = np.where(near_b, np.sin(0.5 * _CHEB_THETA), np.cos(0.5 * _CHEB_THETA))
        psi = math.pi * half * half
        d = 2.0 * r * np.sin(0.5 * psi) ** 2
        inward = np.where(near_b, -1.0, 1.0)
        ends = np.where(near_b, b, a)
        pts = ends[:, None] + (inward * d)[:, None] * (0.5 * (1.0 + _GL_X))
        _, dh, _, dg, _ = profile.jet(np.concatenate([pts.ravel(), ends + inward * d]))
        n_gl = pts.size
        q = inward * (0.5 * dh[:n_gl].reshape(pts.shape) @ _GL_W)
        if not np.all(q > 0.0):  # a dip below |c| the bracket ladder stepped over
            raise ValueError(f"h - |c| is not positive throughout the band ({a}, {b}) "
                             f"for |c| = {cabs}")
        h = cabs + d * q
        gam = np.hypot(dh[n_gl:], dg[n_gl:])
        dt_dx = (0.5 * math.pi) * h * gam * np.cos(0.5 * psi) * np.sqrt(
            2.0 * r / q) / np.sqrt(h + cabs)
        c_t, c_u1 = _CHEB_FIT @ dt_dx, _CHEB_FIT @ (c / (h * h) * dt_dx)
        int_t = chebyshev.chebint(c_t, lbnd=-1.0)
        int_u1 = chebyshev.chebint(c_u1, lbnd=-1.0)
        T = self.half_period = float(np.sum(int_t))  # T_j(1) = 1
        self.half_advance = float(np.sum(int_u1))

        # x at the Chebyshev points in time, by Newton on the time series
        sigma = 0.5 * T * (1.0 + _CHEB_X)
        tau = int_t @ chebyshev.chebvander(_CHEB_X, _CHEB_DEG + 1).T
        x = np.interp(sigma, tau[::-1], _CHEB_X[::-1])
        for _ in range(_NEWTON_STEPS):
            rows = chebyshev.chebvander(x, _CHEB_DEG + 1).T
            x -= (int_t @ rows - sigma) / (c_t @ rows[:-1])
            np.clip(x, -1.0, 1.0, out=x)
        x[0], x[-1] = 1.0, -1.0
        c_u1_t = _CHEB_FIT @ (int_u1 @ chebyshev.chebvander(x, _CHEB_DEG + 1).T)
        c_u2_t = _CHEB_FIT @ (m + r * np.sin(0.5 * math.pi * x))
        c_du2_t = np.zeros_like(c_u2_t)
        c_du2_t[:-1] = chebyshev.chebder(c_u2_t) * (2.0 / T)
        self.coef = np.stack([c_u1_t, c_u2_t, c_du2_t])
        self.tail = max(_series_tail(v) for v in (c_t, c_u1, c_u1_t, c_u2_t))

        # time 0 is latitude 0 on the way up, where u1 = 0.  Both evaluators
        # give the start state (clairaut_state) at the start's y exactly,
        # in place of the series' value there, which is off by rounding
        x0 = 2.0 / math.pi * math.asin(max(-1.0, min(1.0, -m / r)))
        self.t_shift = float(chebyshev.chebval(x0, int_t))
        self._y0 = 2.0 * self.t_shift / T - 1.0
        self.u1_shift = float(chebyshev.chebval(self._y0, c_u1_t))
        h0, gam0 = map(float, profile.metric_factors(0.0))
        self._start = np.array(
            [self.u1_shift, 0.0, math.sqrt(1.0 - c * c / (h0 * h0)) / gam0])

    @property
    def first_turn(self):
        """Time of the first arrival at the upper turning latitude."""
        return self.half_period - self.t_shift

    def _series_scalar(self, sigma):
        """[u1, u2, u2'] of the first half-oscillation at its time sigma."""
        y = min(1.0, max(-1.0, 2.0 * sigma / self.half_period - 1.0))
        if y == self._y0:
            return self._start.tolist()
        return (self.coef @ np.cos(_CHEB_J * math.acos(y))).tolist()

    def _eval_scalar(self, t):
        T = self.half_period
        s = t + self.t_shift
        k = math.floor(s / T)
        odd = k % 2 == 1
        u1, u2, du2 = self._series_scalar(T - (s - k * T) if odd else s - k * T)
        u1 = (k + 1) * self.half_advance - u1 if odd else k * self.half_advance + u1
        h = self.profile.h(u2)
        return np.array([u1 - self.u1_shift, u2, self.c / (h * h), -du2 if odd else du2])

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self._eval_scalar(float(t))
        T = self.half_period
        s = np.asarray(t, dtype=float).ravel() + self.t_shift
        k = np.floor(s / T)
        odd = (k.astype(np.int64) & 1).astype(bool)
        sigma = s - k * T
        sigma[odd] = T - sigma[odd]
        y = np.clip(2.0 * sigma / T - 1.0, -1.0, 1.0)
        v = np.empty((3, y.size))
        for lo in range(0, y.size, _EVAL_BLOCK):
            hi = lo + _EVAL_BLOCK
            v[:, lo:hi] = self.coef @ chebyshev.chebvander(y[lo:hi], _CHEB_DEG).T
        v[:, y == self._y0] = self._start[:, None]
        u1 = k * self.half_advance + v[0]
        u1[odd] = (k[odd] + 1.0) * self.half_advance - v[0, odd]
        v[2, odd] *= -1.0
        h = self.profile.h(v[1])
        return np.stack([u1 - self.u1_shift, v[1], self.c / (h * h), v[2]])


def clairaut_trace(surface, c, t_end):
    """The unit-speed geodesic with Clairaut constant c, from the quadrature.

    The geodesic starts at latitude 0 moving upward (the state
    ``clairaut_state(surface, c)``) and is evaluated by
    ``_ClairautSolution`` at any time; ``ts`` samples [0, t_end] at
    ``_SAMPLES_PER_HALF`` points per half-oscillation and ``turning_times``
    lists the latitude turning times in [0, t_end].  ``meta["series_tail"]``
    is the worst relative tail of the series, a measure of their accuracy.
    Raises ValueError when c is not reached at latitude 0, when a turning
    latitude is degenerate (h' = 0) or when a profile join lies between the
    turning latitudes.  Parallels and meridians are shot instead.
    """
    sol = _ClairautSolution(surface.profile, float(c))
    T = sol.half_period
    t_end = float(t_end)
    ts = np.linspace(0.0, t_end, math.ceil(_SAMPLES_PER_HALF * t_end / T) + 1)
    n_turns = max(0, math.floor((t_end - sol.first_turn) / T) + 1)
    return GeodesicTrace(
        surface, ts, sol(ts), float(c), sol=sol,
        turning_times=sol.first_turn + T * np.arange(n_turns),
        meta={"series_tail": sol.tail},
    )


def _wrap_pi(x):
    """Reduce to (-pi, pi]."""
    return np.mod(np.asarray(x) + math.pi, 2.0 * math.pi) - math.pi


def _defects(trace, T):
    y0 = trace.eval(trace.ts[0])
    yT = trace.eval(trace.ts[0] + T)
    pos = math.hypot(float(_wrap_pi(yT[0] - y0[0])), float(yT[1] - y0[1]))
    tan = math.hypot(float(yT[2] - y0[2]), float(yT[3] - y0[3]))
    return pos, tan


def closure_check(trace, tol=DEFAULT_CLOSURE_TOL, t_candidate=None):
    """Certify C^1 closure at a candidate period.

    The candidate is ``t_candidate``, or else the period a meridian trace
    suggests (``trace.meta["suggested_period"]``); with neither it raises
    ValueError.  Returns a ClosureRecord (also stored on the trace) or None
    if the trace does not close at the candidate within tolerance.
    """
    if t_candidate is None:
        t_candidate = trace.meta.get("suggested_period")
        if t_candidate is None:
            raise ValueError("closure_check needs a candidate period")
    span = trace.t_end - float(trace.ts[0])
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


def trace_length(trace, t_range=None):
    """Arc length over a time range (unit-speed: the range width).

    The metric speed is also resampled at ``_LENGTH_CHECK_SAMPLES`` times as a
    cross-check; a drifting speed indicates an integration problem and raises.
    """
    lo = float(trace.ts[0]) if t_range is None else float(t_range[0])
    hi = trace.t_end if t_range is None else float(t_range[1])
    if not (trace.ts[0] - 1e-12 <= lo < hi <= trace.t_end + 1e-12):
        raise ValueError("range outside trace span")
    width = hi - lo
    if trace.sol is not None:
        ts = np.linspace(lo, hi, _LENGTH_CHECK_SAMPLES)
        ys = trace.eval(ts)
        h, gam = map(np.asarray, trace.surface.profile.metric_factors(ys[1]))
        speed = np.sqrt(h * h * ys[2] ** 2 + gam * gam * ys[3] ** 2)
        sampled = float(trapezoid(speed, ts))
        if abs(sampled - width) > 1e-6 * max(1.0, width):
            raise IntegrationError(
                f"sampled length {sampled} disagrees with unit-speed width {width}"
            )
    return width


# -- self-intersection extraction ------------------------------------------------


def _canonical_time(t, t_start, T):
    """Representative of t modulo T in [t_start, t_start + T).

    A time within 1e-12 T below t_start + T is the start itself: the start
    point's crossing reads t_start whichever side of it rounding puts t.
    """
    r = (t - t_start) % T
    return t_start + (0.0 if r >= T * (1.0 - 1e-12) else r)


def _passage_times(trace, t_lo, t_hi, targets, sign):
    """Times in (t_lo, t_hi) where sign * u1 reaches each target.

    sign * u1 is strictly increasing (u1' = c / h^2), so each target is
    bracketed by the accepted steps around it and found by ``brentq``.
    """
    ts = trace.ts
    w = sign * trace.ys[0]
    out = []
    for target in targets:
        i = int(np.searchsorted(w, target))
        lo = max(float(ts[max(i - 2, 0)]), t_lo)
        hi = min(float(ts[min(i + 1, ts.size - 1)]), t_hi)
        out.append(brentq(lambda t: sign * trace.eval(t)[0] - target, lo, hi,
                          xtol=1e-15, rtol=4.0 * np.finfo(float).eps))
    return out


def detect_self_intersections(trace, angle_floor=ANGLE_FLOOR, period=None):
    """All transversal self-intersections of a closed trace over one period.

    Uses the mirror symmetry of Clairaut geodesics: the trace is symmetric
    under t -> 2 t_j - t, u1 -> 2 u1(t_j) - u1 about every latitude turning
    time t_j.  Two passages through one point have opposite u2', so every
    crossing pair (t, s) is such a mirror pair, t + s = 2 t_j, and
    u1(t) = u1(t_j) + k pi.  The period T must be q latitude periods
    P = 2 (t_1 - t_0).  Each crossing is found once as a pair about one of
    t_0..t_{q-1} with t in (t_j, t_j + T/2); u1 advances by p pi over T/2,
    so k = 1..p-1, and a closed trace has q (p - 1) candidates.  Both times
    are reduced into [t_start, t_start + T), each pair must meet within
    ``CROSSING_TOL`` plus ten times the closure defects (else
    IntegrationError), and pairs whose metric angle is within
    ``angle_floor`` of 0 or pi raise a DegenerateCrossingWarning and are
    dropped.  Parallels and meridians are simple curves and have none.
    """
    if period is None:
        if trace.closure is None:
            raise ValueError("trace is not certified closed; run closure_check first")
        period = trace.closure.period
    T = float(period)
    if trace.meta.get("meridian") or trace.meta.get("parallel"):
        trace.crossings = []
        return []
    turns = np.asarray(trace.turning_times, dtype=float)
    if turns.size < 2:
        raise NeedsMoreTimeError("crossings need two latitude turning times")
    P = 2.0 * float(turns[1] - turns[0])
    q = round(T / P)
    if q < 1 or abs(T / P - q) > 1e-3:
        raise ValueError(
            f"period {T:.12g} is not a multiple of the latitude period {P:.12g}"
        )
    if turns.size < q:
        raise NeedsMoreTimeError(f"crossings need {q} latitude turning times")
    t_start = float(trace.ts[0])
    sign = 1.0 if trace.clairaut_c > 0.0 else -1.0
    two_pi = 2.0 * math.pi
    u1_ends = trace.eval(np.array([t_start, t_start + T]))[0]
    p = round(sign * float(u1_ends[1] - u1_ends[0]) / two_pi)
    # a pair's defect is integration error, as the closure defect is; the
    # reduction modulo T adds the closure defect, grown along the trace
    tol = CROSSING_TOL
    if trace.closure is not None:
        tol += 10.0 * (trace.closure.position_defect + trace.closure.tangent_defect)

    crossings = []
    for t_j in map(float, turns[:q]):
        targets = sign * float(trace.eval(t_j)[0]) + math.pi * np.arange(1, p)
        for t_k in _passage_times(trace, t_j, t_j + 0.5 * T, targets, sign):
            a, b = sorted((_canonical_time(t_k, t_start, T),
                           _canonical_time(2.0 * t_j - t_k, t_start, T)))
            y = trace.eval(np.array([a, b]))
            y1, y2 = y[:, 0], y[:, 1]
            defect = math.hypot(float(_wrap_pi(y1[0] - y2[0])), float(y1[1] - y2[1]))
            if not defect <= tol:
                raise IntegrationError(
                    f"crossing passages at times ({a:.6f}, {b:.6f}) miss by "
                    f"{defect:.3e} > {tol:.1e}; the trace is not mirror-symmetric "
                    f"to tolerance",
                    trace=trace,
                )
            E, _, G = trace.surface.metric_at(float(y1[1]))
            cosang = E * y1[2] * y2[2] + G * y1[3] * y2[3]
            ang = math.acos(max(-1.0, min(1.0, float(cosang))))
            if ang < angle_floor or ang > math.pi - angle_floor:
                warnings.warn(
                    f"near-tangential crossing candidate at times ({a:.6f}, {b:.6f}), "
                    f"angle {ang:.2e}",
                    DegenerateCrossingWarning,
                )
                continue
            crossings.append(Crossing(
                t=a, s=b, u1=float(np.mod(y1[0], two_pi)), u2=float(y1[1]), angle=ang,
            ))
    crossings.sort(key=lambda cr: cr.t)
    trace.crossings = crossings
    return crossings
