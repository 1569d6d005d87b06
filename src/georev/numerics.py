"""Core 1D numerics: quadrature, complete elliptic integrals, root finding.

Two quadrature schemes are provided.  Gauss-Legendre is the default for
smooth integrands; tanh-sinh (double exponential) is the designated scheme
for integrands with inverse-square-root endpoint singularities such as
1/sqrt((y^2-c^2)(1-y^2)).  Integrands may optionally accept the distances
to the interval endpoints as extra arguments, which keeps endpoint-singular
factors accurate far below machine epsilon of the abscissa itself.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "IntegrandError",
    "BracketError",
    "RootConvergenceError",
    "integrate_1d",
    "elliptic_K",
    "elliptic_K_by_quadrature",
    "find_root",
    "central_difference",
    "quadrature_self_test",
]

# Defaults sit two orders below the tightest downstream acceptance tolerances.
DEFAULT_ABS_TOL = 1e-11
DEFAULT_REL_TOL = 1e-10
DEFAULT_ROOT_TOL = 1e-12

_SCHEMES = ("gauss-legendre", "tanh-sinh")


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the best estimate and its error bound."""

    def __init__(self, message, best=None, error_bound=None):
        super().__init__(message)
        self.best = best
        self.error_bound = error_bound


class IntegrandError(ValueError):
    """The integrand returned NaN; records the offending abscissa."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class BracketError(ValueError):
    """The root bracket does not enclose a sign change."""


class RootConvergenceError(RuntimeError):
    """Root finding hit the iteration cap; carries the bracket it was given."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class QuadratureSpec:
    """Scheme selection plus convergence targets.

    ``level`` is the base node count for gauss-legendre (doubled until the
    estimate stabilizes) and the maximum mesh-halving level for tanh-sinh.
    """

    scheme: str = "tanh-sinh"
    level: int = 10
    abs_tol: float = DEFAULT_ABS_TOL
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")


def _integrand_arity(f):
    try:
        kinds = [p.kind for p in inspect.signature(f).parameters.values()]
    except (TypeError, ValueError):
        return 1
    if inspect.Parameter.VAR_POSITIONAL in kinds:
        return 3
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return min(sum(k in positional for k in kinds), 3)


def _check_nan(fv, x):
    fv = np.asarray(fv, dtype=float)
    bad = ~np.isfinite(fv)
    if np.any(bad):
        xa = np.asarray(x, dtype=float)
        where = float(xa[bad][0]) if xa.shape else float(xa)
        raise IntegrandError(
            f"integrand returned a non-finite value at x={where!r}", abscissa=where
        )
    return fv


@lru_cache(maxsize=64)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _gauss_legendre(f, a, b, spec, arity):
    mid = 0.5 * (a + b)
    rad = 0.5 * (b - a)
    prev = None
    n = spec.level
    best = None
    err = math.inf
    for _ in range(8):
        xs, ws = _leggauss(n)
        x = mid + rad * xs
        if arity >= 3:
            fv = f(x, x - a, b - x)
        else:
            fv = f(x)
        fv = _check_nan(fv, x)
        val = rad * float(np.dot(ws, fv))
        if prev is not None:
            err = abs(val - prev)
            best = val
            if err <= max(spec.abs_tol, spec.rel_tol * abs(val)):
                return val
        prev = val
        n *= 2
    raise QuadratureError(
        f"gauss-legendre did not converge on [{a}, {b}] "
        f"(best={best!r}, error~{err:.3e})",
        best=best,
        error_bound=err,
    )


# tanh-sinh nodes: x = mid + rad*tanh((pi/2) sinh t).  The distance of a node
# to the near endpoint, rad * 2/(1+exp(2u)) with u = (pi/2) sinh|t|, is formed
# directly so that it stays accurate when smaller than eps*|endpoint|.
_TS_TMAX = 6.1


@lru_cache(maxsize=32)
def _ts_level_nodes(level):
    """Odd-multiple node parameters for a halving level (level 0: all integers).

    Cached per level and shared by every call, so the array is read-only.
    """
    h = 0.5 ** level
    if level == 0:
        k = np.arange(0.0, _TS_TMAX / h + 1.0)
        t = k * h
        t = np.concatenate([-t[:0:-1], t])
    else:
        k = np.arange(1.0, _TS_TMAX / h + 1.0, 2.0)
        t = k * h
        t = np.concatenate([-t[::-1], t])
    t.flags.writeable = False
    return t


def _ts_eval(f, a, b, t, h, arity):
    rad = 0.5 * (b - a)
    u = 0.5 * math.pi * np.sinh(t)
    au = np.abs(u)
    keep = 2.0 * au < 700.0
    t, u, au = t[keep], u[keep], au[keep]
    # near-endpoint distance, formed without cancellation
    dnear = rad * 2.0 / (1.0 + np.exp(2.0 * au))
    dfar = (b - a) - dnear
    da = np.where(u < 0.0, dnear, dfar)
    db = np.where(u < 0.0, dfar, dnear)
    x = np.where(u < 0.0, a + dnear, b - dnear)
    w = rad * (0.5 * math.pi) * np.cosh(t) / np.cosh(u) ** 2
    if arity >= 3:
        fv = f(x, da, db)
    else:
        fv = f(x)
    fv = _check_nan(fv, x)
    return h * float(np.dot(w, fv))


def _tanh_sinh(f, a, b, spec, arity):
    max_level = max(spec.level, 3)
    total = _ts_eval(f, a, b, _ts_level_nodes(0), 1.0, arity)
    prev = total
    err = math.inf
    for level in range(1, max_level + 1):
        h = 0.5 ** level
        total = 0.5 * prev + _ts_eval(f, a, b, _ts_level_nodes(level), h, arity)
        err = abs(total - prev)
        if level >= 2 and err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        prev = total
    raise QuadratureError(
        f"tanh-sinh did not converge on [{a}, {b}] after level {max_level} "
        f"(best={total!r}, error~{err:.3e})",
        best=total,
        error_bound=err,
    )


def integrate_1d(f, a, b, spec=None):
    """Integrate ``f`` over (a, b) to the tolerances in ``spec``.

    ``f`` is called with a numpy array of abscissae; it may optionally take
    two further arrays (distance to a, distance to b) for endpoint-singular
    factors.  Inverse-square-root endpoint singularities require the
    tanh-sinh scheme.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    arity = _integrand_arity(f)
    if spec.scheme == "gauss-legendre":
        return _gauss_legendre(f, a, b, spec, arity)
    return _tanh_sinh(f, a, b, spec, arity)


def elliptic_K(k):
    """Complete elliptic integral of the first kind via the AGM iteration.

    K(k) = integral over [0, pi/2] of (1 - k^2 sin^2 x)^(-1/2) dx; requires
    0 <= k < 1 (K diverges as k -> 1).
    """
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(60):
        if abs(a - b) <= 4.0 * np.finfo(float).eps * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def elliptic_K_by_quadrature(k, spec=None):
    """K(k) by direct quadrature of the defining integral (cross-check route)."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic modulus must satisfy 0 <= k < 1, got {k}")
    if spec is None:
        spec = QuadratureSpec(scheme="gauss-legendre", level=24)
    k2 = k * k
    return integrate_1d(
        lambda x: 1.0 / np.sqrt(1.0 - k2 * np.sin(x) ** 2), 0.0, 0.5 * math.pi, spec
    )


def find_root(f, lo, hi, tol=DEFAULT_ROOT_TOL, max_iter=200):
    """Bracketed root finding: Brent's zeroin, through ``scipy.optimize.brentq``.

    Requires a sign change on [lo, hi].  Returns x once the bracket around it
    is at most ``tol`` wide, plus a machine-precision term (brentq's
    ``xtol + rtol |x|`` with rtol = 4 eps).  brentq does not expose its last
    bracket, so a RootConvergenceError carries the bracket it was given and
    names the last iterate in its message.
    """
    try:
        x, res = brentq(f, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps,
                        maxiter=max_iter, full_output=True, disp=False)
    except ValueError:
        fa, fb = float(f(lo)), float(f(hi))
        if fa * fb > 0.0:
            raise BracketError(
                f"f({lo})={fa:.6g} and f({hi})={fb:.6g} do not bracket a root"
            ) from None
        raise
    if not res.converged:
        raise RootConvergenceError(
            f"no convergence after {max_iter} iterations (last iterate {x!r})",
            bracket=(lo, hi),
        )
    return x


def central_difference(f, x, h):
    """Second-order central difference approximation of f'(x)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Built-in self-test integrands used to validate a QuadratureSpec's
# level-doubling behavior (exact values are elementary).
_SELF_TEST = (
    ("poly", lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    ("cos", lambda x: np.cos(x), 0.0, 1.5, math.sin(1.5)),
    ("sqrt-sing", lambda x, da, db: 1.0 / np.sqrt(da), 0.0, 1.0, 2.0),
)


def quadrature_self_test(spec=None):
    """Run the built-in integrands; returns list of (name, value, exact, error)."""
    if spec is None:
        spec = QuadratureSpec()
    out = []
    for name, f, a, b, exact in _SELF_TEST:
        if spec.scheme == "gauss-legendre" and name == "sqrt-sing":
            continue
        val = integrate_1d(f, a, b, spec)
        out.append((name, val, exact, abs(val - exact)))
    return out
