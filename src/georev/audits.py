"""Numerical audits of the diameter, distance, and monotonicity inequalities.

Each audit evaluates both sides of a proved inequality on a concrete patch
of a surface of revolution and reports the margin.  The inequalities are
established facts, so a failing audit flags a numerics defect, making the suite
double as an integration test of the quadrature and sampling machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import QuadratureSpec, integrate_1d
from .surfaces import RevolutionSurface

__all__ = [
    "PatchSpec",
    "AuditReport",
    "diameter_bound_audit",
    "interior_point_audit",
    "monotonicity_audit",
    "length_energy_ratio",
    "injectivity_bound_report",
    "random_caps",
]

DEFAULT_AUDIT_TOL = 1e-6
_CAP_MARGIN = 0.05  # random cap cuts keep this fraction of the domain from each end


@dataclass(frozen=True)
class AuditReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    inputs: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.lhs - self.rhs

    @property
    def passed(self):
        return self.margin >= -self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": bool(self.passed),
            "tolerance": self.tolerance,
            "inputs": dict(self.inputs),
        }


class PatchSpec:
    """A cap (one boundary circle) or band (two circles) of a revolution surface."""

    def __init__(self, surface: RevolutionSurface, u2_lo: float, u2_hi: float):
        lo, hi = surface.u2_range
        if not lo - 1e-12 <= u2_lo < u2_hi <= hi + 1e-12:
            raise ValueError("patch interval outside the profile domain")
        self.surface = surface
        self.u2_lo = float(max(lo, u2_lo))
        self.u2_hi = float(min(hi, u2_hi))
        pole_lo, pole_hi = surface.closed_at_poles
        self.caps_lo = pole_lo and abs(self.u2_lo - lo) < 1e-12
        self.caps_hi = pole_hi and abs(self.u2_hi - hi) < 1e-12
        self._diameter = None

    @property
    def boundary_u2(self):
        """Profile parameters of the boundary circles (a capped end is no boundary)."""
        vals = []
        if not self.caps_lo:
            vals.append(self.u2_lo)
        if not self.caps_hi:
            vals.append(self.u2_hi)
        return vals

    @property
    def is_cap(self):
        return len(self.boundary_u2) == 1

    def boundary_length(self):
        return sum(self.surface.parallel_length(v) for v in self.boundary_u2)

    def area_and_willmore(self, spec=None):
        return self.surface.area_and_willmore((self.u2_lo, self.u2_hi), spec)

    def diameter(self):
        if self._diameter is None:
            self._diameter = self.surface.diameter_of((self.u2_lo, self.u2_hi))
        return self._diameter


def diameter_bound_audit(patch, spec=None, tol=DEFAULT_AUDIT_TOL):
    """diam f(D) >= 2 A / (L(boundary) + 2 sqrt(W A))."""
    A, W = patch.area_and_willmore(spec)
    L = patch.boundary_length()
    diam = patch.diameter()
    rhs = 2.0 * A / (L + 2.0 * math.sqrt(max(W, 0.0) * A))
    return AuditReport(
        name="diameter-lower-bound",
        lhs=diam,
        rhs=rhs,
        tolerance=tol,
        inputs={"area": A, "willmore": W, "boundary_length": L,
                "u2_lo": patch.u2_lo, "u2_hi": patch.u2_hi,
                "surface": patch.surface.name},
    )


def interior_point_audit(patch, samples=512, tol=DEFAULT_AUDIT_TOL):
    """max over x0 of dist(f(x0), f(boundary)) >= (diam f(D) - L(boundary)) / 2.

    Requires a connected boundary (a cap); bands are rejected.  By rotational
    symmetry each reference point may be fixed at angle zero, and the circle
    minimum over the angle is exact: for a boundary circle of radius r at
    height z, the nearest point to (h0, 0, z0) sits at angle 0.
    """
    if not patch.is_cap:
        raise ValueError("interior-point audit needs a connected boundary (cap)")
    diam = patch.diameter()
    L = patch.boundary_length()
    prof = patch.surface.profile
    u2s = np.linspace(patch.u2_lo, patch.u2_hi, samples + 2)[1:-1]
    (v,) = patch.boundary_u2
    r, z = prof.position(v)
    h, g = prof.position(u2s)
    lhs = float(np.max(np.hypot(h - r, g - z)))
    rhs = 0.5 * (diam - L)
    return AuditReport(
        name="interior-point-distance",
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        inputs={"diameter": diam, "boundary_length": L,
                "u2_lo": patch.u2_lo, "u2_hi": patch.u2_hi,
                "surface": patch.surface.name},
    )


def monotonicity_audit(patch, u2_0, spec=None, tol=DEFAULT_AUDIT_TOL):
    """4 pi <= W(f, D) + 2 * integral over the boundary of |f(x) - f(x0)|^(-1) ds."""
    if not patch.u2_lo < u2_0 < patch.u2_hi:
        raise ValueError("reference point must lie in the patch interior")
    if spec is None:
        # the integrand peaks sharply at u1 = 0 when x0 sits near the
        # boundary; tanh-sinh panels anchored there resolve any proximity
        spec = QuadratureSpec(scheme="tanh-sinh", level=12)
    surf = patch.surface
    _, W = patch.area_and_willmore()
    h0, g0 = surf.profile.position(u2_0)
    boundary_term = 0.0
    for v in patch.boundary_u2:
        r, z = surf.profile.position(v)

        def inv_dist(u1):
            d = np.sqrt(
                (r * np.cos(u1) - h0) ** 2 + (r * np.sin(u1)) ** 2 + (z - g0) ** 2
            )
            return r / d  # ds = r du1

        # even in u1 with the nearest boundary point at u1 = 0
        boundary_term += 2.0 * integrate_1d(inv_dist, 0.0, math.pi, spec)
    return AuditReport(
        name="monotonicity-lower-bound",
        lhs=W + 2.0 * boundary_term,
        rhs=4.0 * math.pi,
        tolerance=tol,
        inputs={"willmore": W, "boundary_term": boundary_term, "u2_0": u2_0,
                "u2_lo": patch.u2_lo, "u2_hi": patch.u2_hi,
                "surface": patch.surface.name},
    )


def random_caps(surfaces, count, seed=0):
    """Seeded random cap patches across a list of closed surfaces."""
    rng = np.random.default_rng(seed)
    caps = []
    for i in range(count):
        surf = surfaces[i % len(surfaces)]
        lo, hi = surf.u2_range
        span = hi - lo
        cut = lo + span * (_CAP_MARGIN + (1.0 - 2.0 * _CAP_MARGIN) * rng.random())
        if rng.random() < 0.5:
            caps.append(PatchSpec(surf, lo, cut))
        else:
            caps.append(PatchSpec(surf, cut, hi))
    return caps


def length_energy_ratio(family):
    """Ratio table L / ((6 pi - W) sqrt(A)) across a family of (surface, L) pairs.

    ``family`` is an iterable of dicts with keys ``label``, ``surface`` and
    ``geodesic_length`` (the verified closed geodesic the construction
    targets).  Entries with W >= 6 pi are flagged as vacuous.
    """
    rows = []
    for entry in family:
        surf = entry["surface"]
        L = float(entry["geodesic_length"])
        A, W = surf.area_and_willmore()
        vacuous = W >= 6.0 * math.pi
        ratio = math.nan if vacuous else L / ((6.0 * math.pi - W) * math.sqrt(A))
        rows.append(
            {
                "label": entry.get("label", surf.name),
                "geodesic_length": L,
                "area": A,
                "willmore": W,
                "ratio": ratio,
                "vacuous": bool(vacuous),
            }
        )
    valid = [r["ratio"] for r in rows if not r["vacuous"]]
    return {"rows": rows, "min_ratio": min(valid) if valid else math.nan}


def injectivity_bound_report(surface, geodesic_length, samples=20001):
    """Both candidate injectivity-radius terms.

    The curvature term pi / sqrt(max K) is fully numeric; the geodesic term
    (1/2)(6 pi - W) sqrt(A) carries an unknown dimensional constant and is
    reported with a symbolic factor rather than a number.
    """
    lo, hi = surface.u2_range
    ts = np.linspace(lo + 1e-9, hi - 1e-9, samples)
    K, _, _, _ = surface.curvature_grids(ts)
    maxK = float(np.max(K))
    A, W = surface.area_and_willmore()
    curvature_term = math.pi / math.sqrt(maxK) if maxK > 0 else math.inf
    return {
        "surface": surface.name,
        "max_gauss_curvature": maxK,
        "curvature_term": curvature_term,
        "willmore_term": {
            "value": 0.5 * (6.0 * math.pi - W) * math.sqrt(A),
            "symbolic_factor": "C(n)",
        },
        "geodesic_length": geodesic_length,
        "structure": "min(curvature_term, C(n) * willmore_term.value)",
    }
