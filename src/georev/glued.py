"""Glued families of closed surfaces of revolution containing short geodesics.

Two constructions are provided, both assembled from closed-form pieces that
meet with C^1 regularity (continuous position and tangent direction; second
derivatives may jump):

* ``cylinder`` neck: a capped unit sphere, a catenoid collar, a cylinder of
  radius a whose height follows a configurable rule in a, and a radius-a
  hemisphere cap.  The cylinder's waist parallels are closed geodesics of
  length 2 pi a.
* ``spheroid-band`` neck: a thin band of the spheroid (h, g) = a (cos t,
  b sin t), |t| <= a, closed off by two spherical caps.  With b tuned via
  the closure integral the band carries a closed geodesic with a prescribed
  number of self-intersections.

The tangency parameters of the sphere-catenoid join solve

    a cosh(tau) = cos(phi),     sinh(tau) cos(phi) = sin(phi),

whose exact solution is cos(phi) = sqrt(a), tau = acosh(1 / sqrt(a)); the
residual of that closed form is checked before it is used.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .surfaces import (
    ProfileCurve,
    ProfileSegment,
    RevolutionSurface,
    cap_profile,
    catenoid_profile,
    cylinder_profile,
    sphere_profile,
    spheroid_profile,
)

__all__ = [
    "GluedFamilyConfig",
    "GluedSurface",
    "ConstructionError",
    "build_glued_family",
    "parse_height_rule",
    "cylinder_family_closed_forms",
    "spheroid_band_cap_closed_forms",
    "LITERAL_HEIGHT_NOTE",
]

LITERAL_HEIGHT_NOTE = (
    "literal neck height 2a: the piece closed forms give W -> 7*pi as a -> 0 "
    "(capped sphere 4*pi + catenoid 0 + cylinder pi + hemisphere 2*pi); the "
    "6*pi limit requires a neck whose height/radius ratio vanishes, e.g. the "
    "2a^2 rule. Recorded as a note, not a failure."
)

_RULE_RE = re.compile(r"^\s*([0-9.]*)\s*\*?\s*a\s*(?:[\^]|\*\*)?\s*([0-9.]*)\s*$")


class ConstructionError(RuntimeError):
    """Gluing failed; carries residual diagnostics."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def parse_height_rule(rule):
    """Parse a cylinder-height rule like '2a', '2a^2', '1.5a^1.5' to (coeff, power)."""
    m = _RULE_RE.match(str(rule).replace("a2", "a^2"))
    if not m:
        raise ValueError(f"cannot parse cylinder height rule {rule!r}")
    coeff = float(m.group(1)) if m.group(1) else 1.0
    power = float(m.group(2)) if m.group(2) else 1.0
    return coeff, power


@dataclass(frozen=True)
class GluedFamilyConfig:
    """Parameters of one member of a glued family."""

    a: float
    neck_kind: str = "cylinder"  # or "spheroid-band"
    cylinder_height: str = "2a"  # rule, see parse_height_rule
    b: float | None = None  # spheroid-band elongation

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("neck scale a must be positive")
        if self.neck_kind not in ("cylinder", "spheroid-band"):
            raise ValueError(f"unknown neck kind {self.neck_kind!r}")
        if self.neck_kind == "spheroid-band" and self.b is None:
            raise ValueError("spheroid-band neck requires the elongation b")

    def height(self):
        coeff, power = parse_height_rule(self.cylinder_height)
        return coeff * self.a**power

    def to_dict(self):
        coeff, power = parse_height_rule(self.cylinder_height)
        return {
            "kind": self.neck_kind,
            "a": self.a,
            "cylinder_height_rule": {"coeff": coeff, "power": power},
            # the one cap pair and band half-width (a) there are, printed
            # in summary.json
            "caps": {"bottom": "capped-unit-sphere-with-catenoid",
                     "top": "hemisphere"},
            "b": self.b,
            "band_half_width": None,
        }


class GluedSurface(RevolutionSurface):
    """A closed glued surface; remembers its config, joins, and neck band."""

    def __init__(self, profile, cfg, joins, neck_range, notes=()):
        super().__init__(profile, name=f"glued-{cfg.neck_kind}(a={cfg.a})")
        self.cfg = cfg
        self.joins = dict(joins)
        self.neck_range = tuple(neck_range)
        self.notes = tuple(notes)

    @property
    def neck_u2(self):
        """Profile parameter of the canonical neck geodesic (waist parallel)."""
        lo, hi = self.neck_range
        return 0.5 * (lo + hi)

    def piece_energies(self, spec=None):
        out = []
        for seg in self.profile.segments:
            A, W = self.area_and_willmore((seg.t_lo, seg.t_hi), spec)
            out.append((seg.label, A, W))
        return out


def _shift_segment(seg, delta, label=None):
    """Reparametrize a segment by t -> t - delta (same geometry)."""
    return ProfileSegment(
        seg.t_lo + delta,
        seg.t_hi + delta,
        lambda t, _jet=seg.jet: _jet(np.asarray(t, dtype=float) - delta),
        label=label or seg.label,
    )


def _solve_sphere_catenoid_tangency(a):
    """Closed-form (phi, tau) matching radius and tangent slope at the collar."""
    if not 0.0 < a < 1.0:
        raise ConstructionError(
            f"neck scale a={a} admits no sphere-catenoid tangency (need 0 < a < 1)"
        )
    phi = math.acos(math.sqrt(a))
    tau = math.acosh(1.0 / math.sqrt(a))
    # the slope equation in product form over cosh(tau): tan(phi) would
    # amplify the rounding of phi ~ pi/2 by about 1/a, the bare product by
    # about 1/sqrt(a)
    v = np.array([a * math.cosh(tau) - math.cos(phi),
                  (math.sinh(tau) * math.cos(phi) - math.sin(phi)) / math.cosh(tau)])
    res = float(np.linalg.norm(v))
    if res > 1e-10:
        raise ConstructionError(
            f"sphere-catenoid tangency residual {res:.3e} exceeds 1e-10",
            residuals=tuple(v),
        )
    return phi, tau, res


def _build_cylinder_family(cfg):
    H = cfg.height()
    try:
        profile, joins, neck_range = _cylinder_family_profile(cfg, H)
    except ValueError as exc:  # raised by ProfileSegment or ProfileCurve
        raise ConstructionError(
            f"neck a={cfg.a!r} with cylinder height rule {cfg.cylinder_height!r} "
            f"(height {H:.3e}) is too thin for the profile parameter: {exc}"
        ) from exc
    return GluedSurface(
        profile,
        cfg,
        joins,
        neck_range,
        notes=(LITERAL_HEIGHT_NOTE,) if parse_height_rule(cfg.cylinder_height) == (2.0, 1.0) else (),
    )


def _cylinder_family_profile(cfg, H):
    """(profile, joins, neck range) of the cylinder family at height H."""
    a = cfg.a
    phi, tau, res = _solve_sphere_catenoid_tangency(a)
    t_a = a * tau
    z_sph = math.sin(phi)
    joins = {
        "phi_cut": phi,
        "tau": tau,
        "s_a": 1.0 - z_sph,
        "t_a": t_a,
        "tangency_residual": res,
    }
    z1 = z_sph + t_a
    neck_lo = phi + t_a
    neck_hi = neck_lo + H
    cat = catenoid_profile(a, -t_a, 0.0, z_offset=z1)
    cyl = cylinder_profile(a, z1, z1 + H)
    top = replace(cap_profile(a, z1 + H, 0.0, math.pi / 2), label="hemisphere")
    segs = [
        sphere_profile(1.0, 0.0, -math.pi / 2, phi),
        _shift_segment(cat, neck_lo),
        _shift_segment(cyl, neck_lo - z1),
        _shift_segment(top, neck_hi),
    ]
    return ProfileCurve(segs), joins, (neck_lo, neck_hi)


def _build_spheroid_band_family(cfg):
    a, b = cfg.a, float(cfg.b)
    w = a  # band half-width
    if not w < math.pi / 2:
        raise ConstructionError(f"band half-width {w} out of range")
    # join data at t = +w (bottom mirrored by symmetry; g is odd)
    h_j = a * math.cos(w)
    z_j = a * b * math.sin(w)
    slope = math.tan(w) / b  # -dh/dz at the join
    R = h_j * math.sqrt(1.0 + slope * slope)
    d = h_j * slope
    z0 = z_j - d  # top cap center; bottom cap center at -z0
    phi_join = math.asin(d / R)

    # the global parameter is anchored to the band's natural parameter, so the
    # neck evaluators are the bare spheroid closed forms (bit-identical to an
    # unglued neck); only the caps are reparametrized.
    band = spheroid_profile(b, scale=a, t_lo=-w, t_hi=w)
    band = replace(band, label="spheroid-band")
    bottom = cap_profile(R, -z0, -math.pi / 2, -phi_join)
    bottom = replace(bottom, label="cap-bottom")
    bottom = _shift_segment(bottom, phi_join - w)
    top = cap_profile(R, z0, phi_join, math.pi / 2)
    top = replace(top, label="cap-top")
    top = _shift_segment(top, w - phi_join)

    profile = ProfileCurve([bottom, band, top])
    joins = {
        "cap_radius": R,
        "cap_center_z": z0,
        "phi_join": phi_join,
        "band_half_width": w,
        "tangency_residual": max(profile.join_residuals()),
    }
    return GluedSurface(profile, cfg, joins, (band.t_lo, band.t_hi))


def build_glued_family(cfg: GluedFamilyConfig) -> GluedSurface:
    """Assemble the configured family member; raises ConstructionError on failure."""
    if cfg.neck_kind == "cylinder":
        surf = _build_cylinder_family(cfg)
    else:
        surf = _build_spheroid_band_family(cfg)
    res = surf.profile.join_residuals()
    if res and max(res) > 1e-10:
        raise ConstructionError(
            f"glued profile joins exceed tolerance: {max(res):.3e}", residuals=res
        )
    if not surf.is_closed:
        raise ConstructionError("glued surface does not cap off at both poles")
    return surf


# -- closed-form oracles --------------------------------------------------------


def cylinder_family_closed_forms(cfg: GluedFamilyConfig):
    """Exact per-piece (area, willmore) for the cylinder family.

    Capped unit sphere up to height z: A = W = 2 pi (1 + z); catenoid W = 0
    with A = pi a^2 (tau + sinh tau cosh tau); cylinder A = 2 pi a H,
    W = pi H / (2 a); hemisphere A = 2 pi a^2, W = 2 pi.
    """
    a = cfg.a
    H = cfg.height()
    tau = math.acosh(1.0 / math.sqrt(a))
    z_cut = math.sqrt(1.0 - a)
    out = {
        "sphere": (2.0 * math.pi * (1.0 + z_cut), 2.0 * math.pi * (1.0 + z_cut)),
        "catenoid": (math.pi * a * a * (tau + math.sinh(tau) * math.cosh(tau)), 0.0),
    }
    out["cylinder"] = (2.0 * math.pi * a * H, math.pi * H / (2.0 * a))
    out["hemisphere"] = (2.0 * math.pi * a * a, 2.0 * math.pi)
    total_A = sum(v[0] for v in out.values())
    total_W = sum(v[1] for v in out.values())
    out["total"] = (total_A, total_W)
    return out


def spheroid_band_cap_closed_forms(cfg: GluedFamilyConfig):
    """Exact (area, willmore) of each spherical cap of the band family."""
    a, b = cfg.a, float(cfg.b)
    w = a  # band half-width
    h_j = a * math.cos(w)
    slope = math.tan(w) / b
    R = h_j * math.sqrt(1.0 + slope * slope)
    d = h_j * slope
    A_cap = 2.0 * math.pi * R * (R - d)
    W_cap = 2.0 * math.pi * (1.0 - d / R)
    return {"cap": (A_cap, W_cap), "cap_radius": R}
