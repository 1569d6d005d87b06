"""Spheroid parameters for closed geodesics with a prescribed crossing count.

On the spheroid (h, g) = (cos t, b sin t) a unit-speed geodesic launched
along the equator with Clairaut constant c in (0, 1) rises to latitude
arccos(c) and returns; it closes after a quarter-period reflection pattern
exactly when the total azimuthal increment

    I_c = 2 c * integral over (c, 1) of
          sqrt(b^2 - 1 + y^(-2)) / sqrt((y^2 - c^2)(1 - y^2)) dy

is an integer multiple (N + 1) of pi, in which case the closed geodesic has
exactly N distinct self-intersections.  I_c is sandwiched between
2 c b K(k) and 2 sqrt(c^2 (b^2 - 1) + 1) K(k) with k = sqrt(1 - c^2), and is
strictly increasing in b, so a bracketed solve in b realizes any N.  The
geodesic itself comes from the Clairaut quadrature between its turning
latitudes (``geodesics.clairaut_trace``), whose u1 advance per
half-oscillation is a second, independent evaluation of I_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .numerics import (
    BracketError,
    QuadratureSpec,
    elliptic_K,
    find_root,
    integrate_1d,
)
from .geodesics import (
    _defects,
    clairaut_trace,
    closure_check,
    detect_self_intersections,
    trace_length,
)
from .surfaces import spheroid_surface

__all__ = [
    "SpheroidSolution",
    "SolverError",
    "eval_Ic",
    "ic_sandwich_bounds",
    "solve_for_geodesic",
]

_IC_SPEC = QuadratureSpec(scheme="tanh-sinh", level=12, abs_tol=1e-12, rel_tol=1e-12)
_AMPLITUDE_MARGIN = 1e-3  # relative gap between the latitude amplitude and eps


class SolverError(RuntimeError):
    """Parameter solve failed; carries the scanned closure-integral values."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan


def eval_Ic(b, c, spec=None):
    """Closure integral on the spheroid, by tanh-sinh on the singular integrand.

    The integrand has inverse-square-root singularities at both endpoints;
    the quadrature receives the endpoint distances directly so the factors
    (y - c) and (1 - y) stay accurate below machine epsilon of y.
    """
    b, c = float(b), float(c)
    if b < 1.0:
        raise ValueError(f"need b >= 1, got {b}")
    if not 0.0 < c < 1.0:
        raise ValueError(f"need 0 < c < 1, got {c}")
    if spec is None:
        spec = _IC_SPEC
    b2m1 = b * b - 1.0

    def f(y, dc, d1):
        return np.sqrt(b2m1 + 1.0 / (y * y)) / np.sqrt(dc * (y + c) * d1 * (1.0 + y))

    return 2.0 * c * integrate_1d(f, c, 1.0, spec)


def ic_sandwich_bounds(b, c):
    """(lower, upper) = (2 c b K(k), 2 sqrt(c^2(b^2-1)+1) K(k)), k = sqrt(1-c^2)."""
    k = math.sqrt((1.0 - c) * (1.0 + c))
    K = elliptic_K(k)
    return 2.0 * c * b * K, 2.0 * math.sqrt(c * c * (b * b - 1.0) + 1.0) * K


@dataclass(frozen=True)
class SpheroidSolution:
    """Solved spheroid geodesic data, verified on its quadrature trace."""

    N: int
    eps: float
    b: float
    c: float
    t0: float
    length: float
    crossings: int
    closure_position_defect: float
    closure_tangent_defect: float
    max_u2: float
    clairaut_drift: float
    speed_drift: float

    def to_dict(self):
        d = asdict(self)
        d["closure_defect"] = max(
            self.closure_position_defect, self.closure_tangent_defect
        )
        return d

    def check_invariants(self):
        problems = []
        if not self.N + 1 < self.b < self.N + 1 + self.eps:
            problems.append(f"b={self.b} outside ({self.N+1}, {self.N+1+self.eps})")
        if not 1.0 - self.eps < self.c < 1.0:
            problems.append(f"c={self.c} outside (1-eps, 1)")
        if not self.max_u2 < self.eps:
            problems.append(f"max|u2|={self.max_u2} >= eps={self.eps}")
        lo = 2.0 * (self.N + 1) * math.pi * (1.0 - self.eps)
        hi = 2.0 * (self.N + 1) * math.pi / (1.0 - self.eps)
        if not lo <= self.length <= hi:
            problems.append(f"length {self.length} outside [{lo}, {hi}]")
        return problems


def _check_resolved(trace, shoot_tol, where):
    """SolverError when a quadrature trace's series tail exceeds 10 * shoot_tol.

    At degree 64 the tails of the spheroid runs stay near 1e-15, far below
    the default 1e-11.
    """
    tail = trace.meta["series_tail"]
    if not tail <= 10.0 * shoot_tol:  # NaN fails too
        raise SolverError(
            f"quadrature trace for {where} resolved only to {tail:.1e}, "
            f"above 10 * shoot_tol = {10.0 * shoot_tol:.1e}"
        )


def solve_for_geodesic(N, eps, shoot_tol=1e-12, closure_tol=1e-6):
    """Find (b, c) so the spheroid carries a closed geodesic with N crossings.

    The latitude amplitude is set first, c = cos(eps (1 - _AMPLITUDE_MARGIN))
    so that max |u2| = arccos(c) < eps, then b is bisected over
    (N+1, N+1+eps) for I_c = (N+1) pi.  If the bracket carries no sign change,
    c is relaxed toward 1 geometrically.  The geodesic is then traced by the
    Clairaut quadrature, closure at 4 t0 is certified, and the crossing count
    is extracted.  ``shoot_tol`` is the accuracy target of the trace: a
    series whose relative tail exceeds 10 * shoot_tol raises SolverError.
    """
    if N < 1 or not 0.0 < eps < 1.0:
        raise ValueError("need N >= 1 and 0 < eps < 1")
    target = (N + 1) * math.pi
    c = math.cos(eps * (1.0 - _AMPLITUDE_MARGIN))
    b_lo, b_hi = N + 1.0, N + 1.0 + eps
    scan = []

    def g(b):
        return eval_Ic(b, c) - target

    for _ in range(60):
        g_lo, g_hi = g(b_lo), g(b_hi)
        scan.append((c, g_lo + target, g_hi + target))
        if g_lo < 0.0 < g_hi:
            break
        c = 0.5 * (1.0 + c)
    else:
        raise SolverError(
            f"no closure-integral bracket in b for N={N}, eps={eps}", scan=scan
        )
    try:
        b = find_root(g, b_lo, b_hi, tol=1e-13)
    except BracketError as exc:  # pragma: no cover - guarded by the scan above
        raise SolverError(str(exc), scan=scan) from exc

    surface = spheroid_surface(b)
    t_max = 4.0 * target / (2.0 * c) * 1.05
    trace = clairaut_trace(surface, c, t_max)
    _check_resolved(trace, shoot_tol, f"N={N}, eps={eps}")
    if trace.turning_times.size == 0:
        raise SolverError("no latitude turning point found on the traced geodesic")
    t0 = float(trace.turning_times[0])
    rec = closure_check(trace, tol=closure_tol, t_candidate=4.0 * t0)
    if rec is None:
        pos, tan = _defects(trace, 4.0 * t0)
        raise SolverError(
            f"geodesic failed to close at 4 t0 for N={N}, eps={eps} "
            f"(position defect {pos:.3e}, tangent defect {tan:.3e}, "
            f"tolerance {closure_tol:.1e})"
        )
    crossings = detect_self_intersections(trace)
    length = trace_length(trace, (0.0, rec.period))
    max_u2 = float(np.max(np.abs(trace.eval(
        np.linspace(0.0, rec.period, 4096))[1])))
    clair, speed = trace.conservation_drift()
    sol = SpheroidSolution(
        N=N,
        eps=eps,
        b=b,
        c=c,
        t0=t0,
        length=length,
        crossings=len(crossings),
        closure_position_defect=rec.position_defect,
        closure_tangent_defect=rec.tangent_defect,
        max_u2=max_u2,
        clairaut_drift=clair,
        speed_drift=speed,
    )
    return sol, surface, trace
