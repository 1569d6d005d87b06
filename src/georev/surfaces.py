"""Profile curves and surfaces of revolution.

A surface of revolution is generated by a profile curve (h(t), g(t)) with
h > 0 rotated about the vertical axis:

    f(u1, u2) = (h(u2) cos u1, h(u2) sin u1, g(u2)).

The induced metric is diag(h^2, gamma^2) with gamma = sqrt(h'^2 + g'^2).
Profiles are stored as piecewise closed-form evaluators so that curvatures
carry no interpolation error; pieces meet with C^1 regularity (position and
tangent direction), which keeps curvature integrals well defined even when
the second derivatives jump.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureSpec, integrate_1d

__all__ = [
    "ProfileSegment",
    "ProfileCurve",
    "RevolutionSurface",
    "PoleError",
    "sphere_profile",
    "cap_profile",
    "cylinder_profile",
    "catenoid_profile",
    "spheroid_profile",
    "paraboloid_profile",
    "dumbbell_profile",
    "unit_sphere",
    "spheroid_surface",
]

JOIN_TOL = 1e-10
_POLE_TOL = 1e-12
# positions of the components in ProfileSegment.jet
_H, _G, _DH, _DG, _D2H, _D2G = range(6)


class PoleError(ValueError):
    """A closed end where the profile does not meet the axis orthogonally."""


@dataclass(frozen=True)
class ProfileSegment:
    """One closed-form piece of a profile curve on [t_lo, t_hi].

    ``jet(t)`` returns (h, g, h', g', h'', g'') at t, a float or a numpy
    array, computing each transcendental factor once; components with equal
    values may be one shared array, so callers copy before writing.
    """

    t_lo: float
    t_hi: float
    jet: Callable
    label: str = ""

    def __post_init__(self):
        if not self.t_lo < self.t_hi:
            raise ValueError(f"empty segment [{self.t_lo}, {self.t_hi}]")


class ProfileCurve:
    """Ordered list of C^1-joined profile segments, oriented by increasing height."""

    def __init__(self, segments: Sequence[ProfileSegment]):
        if not segments:
            raise ValueError("profile needs at least one segment")
        self.segments = list(segments)
        self.breaks = np.array(
            [s.t_lo for s in self.segments] + [self.segments[-1].t_hi]
        )
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("segments must be ordered and non-overlapping")
        for left, right in zip(self.segments, self.segments[1:]):
            if abs(left.t_hi - right.t_lo) > JOIN_TOL:
                raise ValueError(
                    f"parameter gap between {left.label!r} and {right.label!r}"
                )
        res = self.join_residuals()
        if res and max(res) > JOIN_TOL:
            raise ValueError(f"profile joins are not C^1 (residual {max(res):.3e})")

    @property
    def t_min(self):
        return float(self.breaks[0])

    @property
    def t_max(self):
        return float(self.breaks[-1])

    def join_residuals(self):
        """Position plus unit-tangent mismatch at every interior join."""
        out = []
        for left, right in zip(self.segments, self.segments[1:]):
            t = left.t_hi
            pl = np.array(left.jet(t)[:4], dtype=float)  # (h, g, h', g')
            pr = np.array(right.jet(t)[:4], dtype=float)
            dp = math.hypot(*(pl[:2] - pr[:2]))
            vl, vr = pl[2:], pr[2:]
            dv = np.linalg.norm(vl / np.linalg.norm(vl) - vr / np.linalg.norm(vr))
            out.append(dp + dv)
        return out

    def _segment_index(self, t):
        i = bisect_right(self.breaks, t) - 1
        return min(max(i, 0), len(self.segments) - 1)

    def _eval(self, comps, t):
        """Components ``comps`` (positions in ProfileSegment.jet) at t, locating
        the segments once."""
        if np.ndim(t) == 0:
            t = float(t)
            jet = self.segments[self._segment_index(t)].jet(t)
            return [float(jet[k]) for k in comps]
        t = np.asarray(t, dtype=float)
        if len(self.segments) == 1:
            # every point clips to segment 0: evaluate it on the whole array
            # (contiguous, like the masked path's t[m] copy)
            t = np.ascontiguousarray(t)
            jet = self.segments[0].jet(t)
            outs = []
            for k in comps:
                out = np.empty_like(t)
                out[...] = jet[k]
                outs.append(out)
            return outs
        outs = [np.empty_like(t) for _ in comps]
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0,
                      len(self.segments) - 1)
        for i, seg in enumerate(self.segments):
            m = idx == i
            if np.any(m):
                jet = seg.jet(t[m])
                for out, k in zip(outs, comps):
                    out[m] = jet[k]
        return outs

    def jet(self, t):
        """(h, h', h'', g', g'') at t: floats for a scalar t, arrays for an array."""
        return self._eval((_H, _DH, _D2H, _DG, _D2G), t)

    def christoffel(self, u2):
        """Metric factors and Christoffel symbols of diag(h^2, gamma^2) at u2.

        Returns (h, h'/h, h h'/gamma^2, gamma'/gamma, gamma); the middle three
        are the coefficients of the geodesic equation.
        """
        h, dh, d2h, dg, d2g = self.jet(u2)
        gam = np.hypot(dh, dg)
        dgam = (dh * d2h + dg * d2g) / gam
        return h, dh / h, h * dh / (gam * gam), dgam / gam, gam

    def metric_factors(self, t):
        """(h, gamma) at t, the square roots of the metric diag(h^2, gamma^2),
        from one segment lookup."""
        h, dh, dg = self._eval((_H, _DH, _DG), t)
        return h, np.hypot(dh, dg)

    def position(self, t):
        """(h, g) at t, the profile point, from one segment lookup."""
        return self._eval((_H, _G), t)

    def h(self, t):
        return self._eval((_H,), t)[0]

    def g(self, t):
        return self._eval((_G,), t)[0]

    def dh(self, t):
        return self._eval((_DH,), t)[0]

    def dg(self, t):
        return self._eval((_DG,), t)[0]

    def d2h(self, t):
        return self._eval((_D2H,), t)[0]

    def d2g(self, t):
        return self._eval((_D2G,), t)[0]

    def speed(self, t):
        return np.hypot(*self._eval((_DH, _DG), t))

    def dspeed(self, t):
        _, dh, d2h, dg, d2g = self.jet(t)
        return (dh * d2h + dg * d2g) / np.hypot(dh, dg)

    def interior_breaks(self):
        return [float(b) for b in self.breaks[1:-1]]


class RevolutionSurface:
    """Immutable surface of revolution with metric, curvature, and energy helpers."""

    def __init__(self, profile: ProfileCurve, name: str = ""):
        self.profile = profile
        self.name = name
        h_lo = float(profile.h(profile.t_min))
        h_hi = float(profile.h(profile.t_max))
        self.closed_at_poles = (abs(h_lo) < 1e-9, abs(h_hi) < 1e-9)
        # the pole limit of the parallel curvature exists iff the profile
        # meets the axis orthogonally (g' -> 0 there)
        for t, closed in zip((profile.t_min, profile.t_max), self.closed_at_poles):
            if closed:
                dh, dg = profile._eval((_DH, _DG), t)
                if abs(dg) > 1e-6 * math.hypot(dh, dg):
                    raise PoleError(
                        f"profile does not meet the axis orthogonally at t={t}"
                    )

    # -- basic geometry ----------------------------------------------------

    @property
    def u2_range(self):
        return (self.profile.t_min, self.profile.t_max)

    @property
    def is_closed(self):
        return all(self.closed_at_poles)

    def point(self, u1, u2):
        """Ambient coordinates; broadcasts over arrays."""
        h, g = self.profile.position(u2)
        return np.stack(
            np.broadcast_arrays(h * np.cos(u1), h * np.sin(u1), g), axis=-1
        )

    def metric_at(self, u2):
        """(E, F, G) = (h^2, 0, gamma^2) at the profile parameter u2."""
        lo, hi = self.u2_range
        if not lo <= u2 <= hi:
            raise ValueError(f"u2={u2} outside profile domain [{lo}, {hi}]")
        h, gam = map(float, self.profile.metric_factors(u2))
        return (h * h, 0.0, gam * gam)

    def curvature_grids(self, t):
        """Vectorized (K, H^2, h, gamma) on an array of profile parameters."""
        h, dh, d2h, dg, d2g = self.profile.jet(np.asarray(t, dtype=float))
        km, kp, gam = _principal_curvatures(h, dh, d2h, dg, d2g)
        return km * kp, (km + kp) ** 2, h, gam

    # -- integral quantities -------------------------------------------------

    def area_and_willmore(self, u2_range=None, spec=None):
        """Surface area and Willmore energy over a u2 interval by 1D quadrature.

        Both reduce to profile integrals with dmu = 2 pi h gamma du2; the
        integration is split at segment joins so that each panel is smooth.
        """
        if spec is None:
            spec = QuadratureSpec()
        lo, hi = self.u2_range
        if u2_range is not None:
            lo, hi = max(lo, u2_range[0]), min(hi, u2_range[1])
            if not lo < hi:
                raise ValueError("empty integration range")
        area = 0.0
        willmore = 0.0

        for seg in self.profile.segments:
            a, b = max(lo, seg.t_lo), min(hi, seg.t_hi)
            if not a < b:
                continue

            def dA(t, _seg=seg):
                h, _, dh, dg, _, _ = _seg.jet(t)
                return h * np.hypot(dh, dg)

            def dW(t, _seg=seg):
                h, _, dh, dg, d2h, d2g = _seg.jet(t)
                km, kp, gam = _principal_curvatures(h, dh, d2h, dg, d2g)
                return (km + kp) ** 2 * h * gam

            area += integrate_1d(dA, a, b, spec)
            willmore += integrate_1d(dW, a, b, spec)
        return 2.0 * math.pi * area, 0.5 * math.pi * willmore

    def gauss_curvature_integral(self, u2_range=None, spec=None):
        """Integral of K dmu (2 pi times the profile integral of K h gamma)."""
        if spec is None:
            spec = QuadratureSpec()
        lo, hi = self.u2_range
        if u2_range is not None:
            lo, hi = max(lo, u2_range[0]), min(hi, u2_range[1])
        total = 0.0
        for seg in self.profile.segments:
            a, b = max(lo, seg.t_lo), min(hi, seg.t_hi)
            if not a < b:
                continue

            def dK(t, _seg=seg):
                h, _, dh, dg, d2h, d2g = _seg.jet(t)
                km, _, _ = _principal_curvatures(h, dh, d2h, dg, d2g)
                # K h gamma = kappa_m * dg, finite at poles
                return km * dg

            total += integrate_1d(dK, a, b, spec)
        return 2.0 * math.pi * total

    def parallel_length(self, u2):
        return 2.0 * math.pi * float(self.profile.h(u2))

    def profile_arclength(self, a, b, spec=None):
        if spec is None:
            spec = QuadratureSpec()
        total = 0.0
        for seg in self.profile.segments:
            aa, bb = max(a, seg.t_lo), min(b, seg.t_hi)
            if aa < bb:
                total += integrate_1d(
                    lambda t, _s=seg: np.hypot(*_s.jet(t)[2:4]), aa, bb, spec
                )
        return total

    def diameter_of(self, u2_range=None, samples=4096):
        """Sampled lower bound on the extrinsic diameter.

        By rotational symmetry an extremal pair can be taken with angular
        separation 0 or pi, so only profile-parameter pairs are searched:
        a coarse full pairwise pass locates candidate basins, which are then
        re-searched at the requested resolution.
        """
        if samples < 64:
            raise ValueError("need at least 64 samples")
        lo, hi = self.u2_range
        if u2_range is not None:
            lo, hi = max(lo, u2_range[0]), min(hi, u2_range[1])

        def pair_max(ti, tj):
            h_i, g_i = (v[:, None] for v in self.profile.position(ti))
            h_j, g_j = (v[None, :] for v in self.profile.position(tj))
            d_pi = (h_i + h_j) ** 2 + (g_i - g_j) ** 2
            d_0 = (h_i - h_j) ** 2 + (g_i - g_j) ** 2
            both = np.maximum(d_pi, d_0)
            k = int(np.argmax(both))
            return float(both.ravel()[k]), k // both.shape[1], k % both.shape[1]

        n_c = min(samples, 512)
        t_c = np.linspace(lo, hi, n_c)
        best, i_c, j_c = pair_max(t_c, t_c)
        if samples > n_c:
            span = (hi - lo) / (n_c - 1)
            n_w = max(2, 2 * samples // n_c)
            ti = np.linspace(max(lo, t_c[i_c] - span), min(hi, t_c[i_c] + span), n_w)
            tj = np.linspace(max(lo, t_c[j_c] - span), min(hi, t_c[j_c] + span), n_w)
            refined, _, _ = pair_max(ti, tj)
            best = max(best, refined)
        return math.sqrt(best)

    def scaled(self, lam, name=None):
        """The surface scaled by lam > 0 (profile reparametrized by t -> t)."""
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        segs = [
            replace(s, jet=lambda t, _jet=s.jet: tuple(lam * v for v in _jet(t)))
            for s in self.profile.segments
        ]
        return RevolutionSurface(
            ProfileCurve(segs), name=name or f"{self.name}*{lam}"
        )


def _principal_curvatures(h, dh, d2h, dg, d2g):
    """(kappa_meridian, kappa_parallel, gamma) from the profile jet.

    At a pole (h = 0) the parallel curvature takes its limit g''/(h' gamma),
    which equals the meridian curvature when the profile meets the axis
    orthogonally (umbilic point).
    """
    gam = np.hypot(dh, dg)
    # a product, not gam**3: numpy's vectorized pow may round the last bit
    # differently from its scalar pow, products round the same on both
    km = (dh * d2g - dg * d2h) / (gam * gam * gam)
    with np.errstate(divide="ignore", invalid="ignore"):
        kp = np.where(np.abs(h) < _POLE_TOL, d2g / (dh * gam), dg / (h * gam))
    return km, kp, gam


# -- standard profiles ---------------------------------------------------------


def sphere_profile(radius=1.0, center_z=0.0, phi_lo=-math.pi / 2, phi_hi=math.pi / 2):
    """Sphere of given radius parametrized by latitude phi; phi = +-pi/2 are poles."""
    R, z0 = float(radius), float(center_z)

    def jet(t):
        h, r_sin = R * np.cos(t), R * np.sin(t)
        return h, z0 + r_sin, -r_sin, h, -h, -r_sin

    return ProfileSegment(phi_lo, phi_hi, jet, label="sphere")


def cap_profile(radius, center_z, phi_lo, phi_hi=math.pi / 2):
    """Spherical cap (same parametrization as sphere_profile, partial range)."""
    seg = sphere_profile(radius, center_z, phi_lo, phi_hi)
    return replace(seg, label="cap")


def cylinder_profile(radius, z_lo, z_hi):
    a = float(radius)

    def jet(t):
        t = np.asarray(t, dtype=float)
        one, zero = np.ones_like(t), np.zeros_like(t)
        return a * one, t + 0.0, zero, one, zero, zero

    return ProfileSegment(z_lo, z_hi, jet, label="cylinder")


def catenoid_profile(waist, t_lo, t_hi, z_offset=0.0):
    """Catenoid h = a cosh(t/a), height t + z_offset; minimal (H = 0)."""
    a, z0 = float(waist), float(z_offset)

    def jet(t):
        u = t / a
        cosh = np.cosh(u)
        t = np.asarray(t, dtype=float)
        return a * cosh, t + z0, np.sinh(u), np.ones_like(t), cosh / a, np.zeros_like(t)

    return ProfileSegment(t_lo, t_hi, jet, label="catenoid")


def spheroid_profile(b, scale=1.0, t_lo=-math.pi / 2, t_hi=math.pi / 2, z_offset=0.0):
    """Spheroid profile (h, g) = scale * (cos t, b sin t); b > 1 is prolate."""
    b, s, z0 = float(b), float(scale), float(z_offset)
    sb = s * b

    def jet(t):
        cos, sin = np.cos(t), np.sin(t)
        h, sb_sin = s * cos, sb * sin
        return h, z0 + sb_sin, -s * sin, sb * cos, -h, -sb_sin

    return ProfileSegment(t_lo, t_hi, jet, label="spheroid")


def paraboloid_profile(t_hi, coeff=0.5):
    """Graph-of-r^2 profile (h, g) = (t, coeff t^2) used for cross-checks."""
    c = float(coeff)

    def jet(t):
        t = np.asarray(t, dtype=float)
        one = np.ones_like(t)
        return t + 0.0, c * t ** 2, one, 2.0 * c * t, np.zeros_like(t), 2.0 * c * one

    return ProfileSegment(0.0, t_hi, jet, label="paraboloid")


def dumbbell_profile(half_width=0.8, neck_depth=0.6, neck_sigma=0.3):
    """Open neck band h = 1 - depth*exp(-t^2/(2 sigma^2)): one geodesic waist at t=0."""
    d, s2 = float(neck_depth), float(neck_sigma) ** 2
    w = float(half_width)

    def jet(t):
        t = np.asarray(t, dtype=float)
        bump = np.exp(-t ** 2 / (2.0 * s2))
        return (1.0 - d * bump, t + 0.0, d * t / s2 * bump, np.ones_like(t),
                d / s2 * (1.0 - t ** 2 / s2) * bump, np.zeros_like(t))

    return ProfileSegment(-w, w, jet, label="dumbbell")


def unit_sphere():
    return RevolutionSurface(ProfileCurve([sphere_profile()]), name="unit-sphere")


def spheroid_surface(b, scale=1.0):
    return RevolutionSurface(
        ProfileCurve([spheroid_profile(b, scale)]), name=f"spheroid(b={b})"
    )
