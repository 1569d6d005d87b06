"""Intrinsic curve shortening flow for closed curves on a revolution surface.

The flow moves each point with normal velocity equal to the geodesic
curvature.  Curves live in the (u1, u2) chart with u1 lifted (a closed curve
may wind; its winding number is stored).  The geodesic curvature vector is
discretized by covariant central differences with the Christoffel symbols of
the metric diag(h^2, gamma^2):

    a^1 = u1'' + 2 (h'/h) u1' u2'
    a^2 = u2'' - (h h'/gamma^2) u1'^2 + (gamma'/gamma) u2'^2

(coefficients from ``ProfileCurve.christoffel``) projected orthogonally to
the tangent.  Time stepping is explicit with the parabolic restriction
dt = DT_SAFETY * (min spacing)^2.  ``evolve`` and ``avoidance_harness`` share
one step kernel: ``curvature_velocity`` evaluates the profile at the samples,
``_euler_step`` moves them, checks the chart band and the length monotonicity,
and evaluates the profile at the new segment midpoints.  Those segment
lengths are carried into the next step's velocity and dt rule, so each step
makes two profile evaluations.  Rotationally symmetric initial data stay exact
parallels, for which the flow reduces to the scalar latitude equation
du2/dt = -h'/(h gamma^2); that reduction doubles as a test oracle.

Flows are restricted to bands away from the poles, where the chart
discretization would degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "FlowCurve",
    "FlowPolicy",
    "FlowResult",
    "AvoidanceRecord",
    "FlowError",
    "ChartError",
    "AvoidanceViolation",
    "parallel_curve",
    "curve_from_trace",
    "curvature_velocity",
    "evolve",
    "avoidance_harness",
    "latitude_ode_rhs",
]


DT_SAFETY = 0.4  # dt = DT_SAFETY * (min spacing)^2
RESAMPLE_CHECK_EVERY = 10  # steps between spacing checks in ``evolve``
RESAMPLE_RATIO = 1.5  # respace when max/min segment length exceeds this
MAX_STEPS = 2_000_000
SNAPSHOTS = 10  # ``evolve`` records a snapshot every t_end / SNAPSHOTS


class FlowError(RuntimeError):
    """Flow step failure; carries the last snapshot."""

    def __init__(self, message, snapshot=None):
        super().__init__(message)
        self.snapshot = snapshot


class ChartError(FlowError):
    """The curve left the chart band (pole crossing)."""


class AvoidanceViolation(RuntimeError):
    """Two evolving curves touched (d_min <= 0)."""


@dataclass
class FlowCurve:
    """Cyclic sample list (u1 lifted, u2) of a closed immersed curve."""

    samples: np.ndarray  # (M, 2)
    winding: int = 1
    time: float = 0.0
    kappa_g: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 2:
            raise ValueError("samples must be an (M, 2) array")
        if self.samples.shape[0] < 8:
            raise ValueError("need at least 8 samples")

    @property
    def m(self):
        return self.samples.shape[0]

    def closed_offsets(self):
        """(prev, next) sample arrays with the winding shift applied."""
        shift = np.array([2.0 * math.pi * self.winding, 0.0])
        p = self.samples
        return (np.concatenate([p[-1:] - shift, p[:-1]]),
                np.concatenate([p[1:], p[:1] + shift]))

    def metric_lengths(self, surface, nxt=None):
        """Metric length of each sample-to-next segment (midpoint metric).

        ``nxt`` is the next-sample array of ``closed_offsets`` when the
        caller already has it.
        """
        if nxt is None:
            _, nxt = self.closed_offsets()
        d = nxt - self.samples
        mid = 0.5 * (self.samples[:, 1] + nxt[:, 1])
        h, gam = surface.profile.metric_factors(mid)
        return np.sqrt((h * d[:, 0]) ** 2 + (gam * d[:, 1]) ** 2)

    def length(self, surface):
        return float(np.sum(self.metric_lengths(surface)))

    def ambient_points(self, surface):
        return surface.point(self.samples[:, 0], self.samples[:, 1])

    def copy(self):
        return FlowCurve(self.samples.copy(), self.winding, self.time,
                         None if self.kappa_g is None else self.kappa_g.copy())


@dataclass(frozen=True)
class FlowPolicy:
    convergence_tol: float = 1e-3
    shrink_floor_frac: float = 1e-3


@dataclass
class FlowResult:
    snapshots: list
    final: FlowCurve
    converged: bool
    shrinking: bool
    times: np.ndarray
    lengths: np.ndarray
    max_kappa: np.ndarray


@dataclass
class AvoidanceRecord:
    times: np.ndarray
    d_min: np.ndarray  # squared ambient separation per step

    @property
    def min_over_time(self):
        return float(np.min(self.d_min))


def parallel_curve(surface, u2, m=96):
    """Rotationally symmetric curve: the parallel circle at latitude u2."""
    u1 = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    return FlowCurve(np.stack([u1, np.full(m, float(u2))], axis=1), 1)


def curve_from_trace(trace, m=512):
    """Resample a closure-certified geodesic trace as a FlowCurve."""
    if trace.closure is None:
        raise ValueError("trace must be closure-certified")
    T = trace.closure.period
    ts = np.linspace(0.0, T, m, endpoint=False)
    ys = trace.eval(ts)
    yT = trace.eval(T)
    winding = int(round((yT[0] - ys[0][0]) / (2.0 * math.pi)))
    return FlowCurve(np.stack([ys[0], ys[1]], axis=1), winding, 0.0)


def curvature_velocity(surface, curve, seg=None):
    """(velocity (M,2), |kappa_g| (M,)) by covariant central differences.

    ``seg`` is ``curve.metric_lengths(surface)`` when the caller already has
    it (the flow loops carry it from step to step).
    """
    prv, nxt = curve.closed_offsets()
    p = curve.samples
    if seg is None:
        seg = curve.metric_lengths(surface, nxt)
    h_next = seg
    h_prev = np.concatenate([seg[-1:], seg[:-1]])

    # nonuniform 3-point first and second derivatives in arclength
    denom = h_prev * h_next * (h_prev + h_next)
    w_m = -(h_next**2) / denom
    w_0 = (h_next**2 - h_prev**2) / denom
    w_p = (h_prev**2) / denom
    xp = w_m[:, None] * prv + w_0[:, None] * p + w_p[:, None] * nxt
    v_m = 2.0 * h_next / denom
    v_p = 2.0 * h_prev / denom
    v_0 = -(v_m + v_p)
    xpp = v_m[:, None] * prv + v_0[:, None] * p + v_p[:, None] * nxt

    h, dh_h, hdh_gg, dgam_gam, gam = surface.profile.christoffel(p[:, 1])
    a1 = xpp[:, 0] + 2.0 * dh_h * xp[:, 0] * xp[:, 1]
    a2 = xpp[:, 1] - hdh_gg * xp[:, 0] ** 2 + dgam_gam * xp[:, 1] ** 2
    # project out the tangential component in the metric
    E = h * h
    G = gam * gam
    t_norm2 = E * xp[:, 0] ** 2 + G * xp[:, 1] ** 2
    dot = (E * a1 * xp[:, 0] + G * a2 * xp[:, 1]) / t_norm2
    n1 = a1 - dot * xp[:, 0]
    n2 = a2 - dot * xp[:, 1]
    kappa = np.sqrt(E * n1 * n1 + G * n2 * n2)
    return np.stack([n1, n2], axis=1), kappa


def _resample_uniform(curve, surface, seg):
    """Respace samples uniformly in arclength on a periodic cubic spline.

    ``seg`` is ``curve.metric_lengths(surface)``.  The winding trend is
    removed from u1 so that both chart coordinates are periodic functions of
    the arclength parameter.
    """
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    m = curve.m
    shift = 2.0 * math.pi * curve.winding
    u1 = np.concatenate([curve.samples[:, 0], [curve.samples[0, 0] + shift]])
    u2 = np.concatenate([curve.samples[:, 1], [curve.samples[0, 1]]])
    trend = shift * s / total
    sp1 = CubicSpline(s, u1 - trend, bc_type="periodic")
    sp2 = CubicSpline(s, u2, bc_type="periodic")
    s_new = np.linspace(0.0, total, m, endpoint=False)
    new = np.stack(
        [sp1(s_new) + shift * s_new / total, sp2(s_new)], axis=1
    )
    return FlowCurve(new, curve.winding, curve.time)


def _euler_step(surface, curve, vel, dt, length):
    """Advance ``curve`` in place by one forward-Euler step dt * vel.

    This is the update half of the flow step; the other half is the
    ``curvature_velocity`` call that produced ``vel``.  Raises ChartError
    when a sample comes within 1e-9 of either end of the chart band, and
    FlowError when the length exceeds ``length`` by more than 1e-12.
    Returns the new segment lengths and their sum, which the next step's
    ``curvature_velocity`` and dt rule reuse.
    """
    lo, hi = surface.u2_range
    curve.samples = curve.samples + dt * vel
    curve.time += dt
    u2 = curve.samples[:, 1]
    if np.any(u2 <= lo + 1e-9) or np.any(u2 >= hi - 1e-9):
        raise ChartError(
            "curve reached the chart boundary (pole side)", snapshot=curve
        )
    seg = curve.metric_lengths(surface)
    new_len = float(np.sum(seg))
    if new_len > length + 1e-12:
        raise FlowError(
            f"length increased by {new_len - length:.3e} in one step",
            snapshot=curve,
        )
    return seg, new_len


def evolve(surface, init, t_end, policy=None):
    """Run the flow to t_end; stops early on convergence or shrink-out.

    Returns a FlowResult whose snapshots include the final state.  Every
    accepted step must not increase the length (the monotonicity of the flow
    is a correctness check on the discretization, enforced to 1e-12).  The
    segment lengths are evaluated once per curve state and carried from step
    to step, so a step makes two profile evaluations: the Christoffel
    symbols at the samples and the metric at the segment midpoints.
    """
    if policy is None:
        policy = FlowPolicy()
    curve = init.copy()
    seg = curve.metric_lengths(surface)
    L0 = float(np.sum(seg))
    snapshot_dt = t_end / SNAPSHOTS
    snapshots = [curve.copy()]
    times = [curve.time]
    lengths = [L0]
    kappas = []
    converged = False
    shrinking = False
    next_snap = curve.time + snapshot_dt
    length = L0
    for step in range(MAX_STEPS):
        if curve.time >= t_end - 1e-14:
            break
        vel, kappa = curvature_velocity(surface, curve, seg)
        max_k = float(np.max(kappa))
        kappas.append(max_k)
        if max_k < policy.convergence_tol:
            converged = True
            break
        min_sp = float(np.min(seg))
        if min_sp <= 0.0:
            raise FlowError("sample spacing collapsed", snapshot=curve)
        dt = DT_SAFETY * min_sp * min_sp
        if dt < 1e-16:
            raise FlowError("step size underflow", snapshot=curve)
        dt = min(dt, t_end - curve.time)
        seg, length = _euler_step(surface, curve, vel, dt, length)
        if length < policy.shrink_floor_frac * L0:
            shrinking = True
            break
        if (step + 1) % RESAMPLE_CHECK_EVERY == 0:
            if float(np.max(seg)) > RESAMPLE_RATIO * float(np.min(seg)):
                curve = _resample_uniform(curve, surface, seg)
                seg = curve.metric_lengths(surface)
                length = float(np.sum(seg))
        if curve.time >= next_snap - 1e-12:
            snap = curve.copy()
            snap.kappa_g = kappa
            snapshots.append(snap)
            next_snap += snapshot_dt
        times.append(curve.time)
        lengths.append(length)
    curve.kappa_g = curvature_velocity(surface, curve, seg)[1]
    snapshots.append(curve.copy())
    return FlowResult(
        snapshots=snapshots,
        final=curve,
        converged=converged,
        shrinking=shrinking,
        times=np.asarray(times),
        lengths=np.asarray(lengths),
        max_kappa=np.asarray(kappas) if kappas else np.empty(0),
    )


def _min_sq_distance(pa, pb):
    # component by component, with no m x m x 3 array; the sum runs in the
    # order of a length-3 axis sum, so every value is unchanged
    dx, dy, dz = (pa[:, None, i] - pb[None, :, i] for i in range(3))
    return float(np.min(dx * dx + dy * dy + dz * dz))


def avoidance_harness(surface, c1, c2, t_end, c2_stationary=False):
    """Evolve two disjoint curves on a shared clock, recording min separation.

    Both curves take the flow step of ``evolve`` (its chart and 1e-12 length
    monotonicity checks included) with the smaller of their two dt; there is
    no resampling.  The clock starts at 0.  ``c2_stationary`` freezes the
    second curve (valid when it is a geodesic, whose constant evolution
    satisfies the flow).  Raises AvoidanceViolation the moment the squared
    ambient separation reaches zero.
    """
    a = c1.copy()
    b = c2.copy()
    a.time = b.time = 0.0
    pa = a.ambient_points(surface)
    pb = b.ambient_points(surface)
    d0 = _min_sq_distance(pa, pb)
    if d0 <= 0.0:
        raise ValueError("initial curves are not disjoint")
    moving = [a] if c2_stationary else [a, b]
    segs = [c.metric_lengths(surface) for c in moving]
    lens = [float(np.sum(seg)) for seg in segs]
    times = [0.0]
    dmins = [d0]
    while a.time < t_end - 1e-14:
        vels = [curvature_velocity(surface, c, seg)[0]
                for c, seg in zip(moving, segs)]
        dt = min(DT_SAFETY * float(np.min(seg)) ** 2 for seg in segs)
        dt = min(dt, t_end - a.time)
        for k, c in enumerate(moving):
            segs[k], lens[k] = _euler_step(surface, c, vels[k], dt, lens[k])
        pa = a.ambient_points(surface)
        if not c2_stationary:
            pb = b.ambient_points(surface)
        d = _min_sq_distance(pa, pb)
        times.append(a.time)
        dmins.append(d)
        if d <= 0.0:
            raise AvoidanceViolation(
                f"curves touched at t={a.time:.6f} (d_min={d:.3e})"
            )
    return AvoidanceRecord(np.asarray(times), np.asarray(dmins))


def latitude_ode_rhs(surface):
    """Scalar oracle for rotationally symmetric flows: du2/dt = -h'/(h gamma^2)."""
    prof = surface.profile

    def rhs(t, y):
        h, dh, _, dg, _ = prof.jet(y[0])
        return (-dh / (h * float(np.hypot(dh, dg)) ** 2),)

    return rhs
