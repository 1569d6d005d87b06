import math

import numpy as np
import pytest

from georev.numerics import (
    BracketError,
    IntegrandError,
    QuadratureError,
    QuadratureSpec,
    RootConvergenceError,
    central_difference,
    elliptic_K,
    elliptic_K_by_quadrature,
    find_root,
    integrate_1d,
    quadrature_self_test,
)

TS = QuadratureSpec()
GL = QuadratureSpec(scheme="gauss-legendre", level=16)


class TestIntegrate:
    def test_polynomial_exact(self):
        assert abs(integrate_1d(lambda x: x * x, 0.0, 1.0, GL) - 1.0 / 3.0) < 1e-12
        assert abs(integrate_1d(lambda x: x * x, 0.0, 1.0, TS) - 1.0 / 3.0) < 1e-12

    def test_inverse_sqrt_singularity(self):
        val = integrate_1d(lambda x, da, db: 1.0 / np.sqrt(da), 0.0, 1.0, TS)
        assert abs(val - 2.0) < 1e-10

    def test_elliptic_identity_tanh_sinh(self):
        # integral over (c, 1) of dy / sqrt((y^2-c^2)(1-y^2)) = K(sqrt(1-c^2))
        c = 0.6

        def f(y, da, db):
            return 1.0 / np.sqrt(da * (y + c) * db * (1.0 + y))

        val = integrate_1d(f, c, 1.0, TS)
        assert abs(val - elliptic_K(0.8)) < 1e-10

    def test_gauss_legendre_rejects_hard_singularity(self):
        with pytest.raises(QuadratureError) as err:
            integrate_1d(
                lambda x, da, db: 1.0 / np.sqrt(da),
                0.0,
                1.0,
                QuadratureSpec(scheme="gauss-legendre", level=8),
            )
        assert err.value.best is not None
        assert err.value.error_bound > 0

    def test_nan_reports_abscissa(self):
        def f(x):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(IntegrandError) as err:
            integrate_1d(f, 0.0, 1.0, GL)
        assert err.value.abscissa is not None and err.value.abscissa > 0.5

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0, GL)

    def test_level_doubling_convergence(self):
        # beyond a threshold level the level-to-level change is monotone down
        from georev.numerics import _ts_eval, _ts_level_nodes

        def f(x):
            return np.exp(x) * np.cos(3.0 * x)

        totals = []
        total = _ts_eval(f, 0.0, 2.0, _ts_level_nodes(0), 1.0, 1)
        totals.append(total)
        for level in range(1, 9):
            h = 0.5**level
            total = 0.5 * total + _ts_eval(f, 0.0, 2.0, _ts_level_nodes(level), h, 1)
            totals.append(total)
        diffs = [abs(b - a) for a, b in zip(totals, totals[1:])]
        # monotone decrease beyond the first level, down to the roundoff floor
        floor = 1e-14 * max(abs(t) for t in totals)
        tail = []
        for d in diffs[1:]:
            tail.append(d)
            if d < floor:
                break
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < floor

    def test_level_nodes_cached_read_only(self):
        from georev.numerics import _ts_level_nodes

        for level in (0, 1, 4):
            t = _ts_level_nodes(level)
            assert t is _ts_level_nodes(level)
            assert not t.flags.writeable
            assert t.tobytes() == _ts_level_nodes.__wrapped__(level).tobytes()

    def test_integrand_arity(self):
        from georev.numerics import _integrand_arity

        def two(x, da):
            return x

        def star(*xs):
            return xs[0]

        def keyword_only(x, *, scale=1.0):
            return x

        cases = [(lambda x: x, 1), (two, 2), (lambda x, da, db, e: x, 3),
                 (star, 3), (keyword_only, 1), (max, 1)]
        for f, want in cases:
            assert _integrand_arity(f) == want, f

    def test_self_test_integrands(self):
        for name, val, exact, err in quadrature_self_test(TS):
            assert err < 1e-10, name


class TestEllipticK:
    def test_k0_exact(self):
        assert abs(elliptic_K(0.0) - math.pi / 2.0) < 1e-14

    def test_small_k_series(self):
        k = 1e-3
        assert abs(elliptic_K(k) - (math.pi / 2.0) * (1 + k * k / 4.0)) < 1e-9

    def test_derivative_ratio_limit(self):
        # K'(k)/k -> pi/4 as k -> 0
        k = 1e-4
        dk = central_difference(elliptic_K, k, 2e-5)
        assert abs(dk / k - math.pi / 4.0) < 1e-6 * (math.pi / 4.0)

    def test_agm_vs_quadrature(self):
        for k in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
            assert abs(elliptic_K(k) - elliptic_K_by_quadrature(k)) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            elliptic_K(1.0)
        with pytest.raises(ValueError):
            elliptic_K(-0.1)

    def test_increasing_and_bounded_below(self):
        vals = [elliptic_K(k) for k in np.linspace(0, 0.99, 25)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] >= math.pi / 2.0 - 1e-15


class TestFindRoot:
    def test_sqrt2(self):
        assert abs(find_root(lambda x: x * x - 2.0, 1.0, 2.0) - math.sqrt(2)) < 1e-12

    def test_cos(self):
        assert abs(find_root(math.cos, 1.0, 2.0) - math.pi / 2.0) < 1e-12

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_root_inside_bracket_and_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = float(rng.uniform(-2.0, 0.0))
            b = float(rng.uniform(0.5, 3.0))
            shift = float(rng.uniform(a + 0.05, b - 0.05))

            def f(x):
                return math.tanh(x - shift) + 0.1 * (x - shift)

            x = find_root(f, a, b)
            assert a <= x <= b
            assert abs(f(x)) <= max(abs(f(a)), abs(f(b)))

    def test_spheroid_closure_root(self):
        # tuning c at fixed b = 4.038 so the closure integral equals 4 pi
        from georev.spheroid import eval_Ic

        c = find_root(lambda c: eval_Ic(4.038, c) - 4.0 * math.pi, 0.9, 0.999,
                      tol=1e-10)
        assert abs(c - 0.980) < 5e-3

    def test_convergence_error_carries_given_bracket(self):
        with pytest.raises(RootConvergenceError) as info:
            find_root(lambda x: x**3 - 2.0, 0.0, 5.0, max_iter=2)
        assert info.value.bracket == (0.0, 5.0)
        assert "last iterate" in str(info.value)


def _reference_find_root(f, lo, hi, tol=1e-12, max_iter=200):
    """The hand-written Brent loop ``find_root`` used before it called brentq."""
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(
            f"f({a})={fa:.6g} and f({b})={fb:.6g} do not bracket a root"
        )
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(f(b))
    raise RootConvergenceError(
        f"no convergence after {max_iter} iterations", bracket=(b, c)
    )


class TestFindRootReference:
    """find_root on brentq against the hand-written Brent loop it replaced."""

    def test_spheroid_closure_roots_equal(self):
        # the b solve of solve_for_geodesic over the spheroid failure map and
        # the audit band: every root, and the I_c evaluation count, are equal
        from georev.spheroid import eval_Ic

        cases = [(N, eps) for eps in (0.02, 0.2, 0.453, 0.6)
                 for N in range(1, 13)] + [(3, 0.0045)]
        for N, eps in cases:
            target = (N + 1) * math.pi
            c = math.cos(eps * (1.0 - 1e-3))
            lo, hi = N + 1.0, N + 1.0 + eps
            while not eval_Ic(lo, c) < target < eval_Ic(hi, c):
                c = 0.5 * (1.0 + c)
            seen = {"new": [], "ref": []}

            def g(b, side):
                seen[side].append(b)
                return eval_Ic(b, c) - target

            got = find_root(lambda b: g(b, "new"), lo, hi, tol=1e-13)
            want = _reference_find_root(lambda b: g(b, "ref"), lo, hi, tol=1e-13)
            assert got == want, (N, eps)
            assert seen["new"] == seen["ref"], (N, eps)

    def test_closure_root_in_c_equal(self):
        from georev.spheroid import eval_Ic

        def g(c):
            return eval_Ic(4.038, c) - 4.0 * math.pi

        assert find_root(g, 0.9, 0.999, tol=1e-10) == _reference_find_root(
            g, 0.9, 0.999, tol=1e-10)

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-13])
    def test_random_functions_agree_within_tolerance(self, tol):
        # the two loops form the interpolation step by different but equal
        # formulas, so the iterates can part in their last bits (most often
        # on the exponential family); both stop within tol of the root
        rng = np.random.default_rng(7)
        families = (
            lambda x, r, p: math.tanh(p[0] * (x - r)) + p[1] * (x - r) ** 3,
            lambda x, r, p: (x - r) * (p[0] + p[1] * x * x),
            lambda x, r, p: math.exp(p[0] * (x - r)) - 1.0,
            lambda x, r, p: math.atan(p[0] * (x - r)) + 0.1 * p[2] * math.sin(p[1] * (x - r)),
        )
        for i in range(400):
            a = float(rng.uniform(-3.0, 0.0))
            b = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(a + 1e-3, b - 1e-3))
            p = rng.uniform(0.1, 3.0, size=3)

            def f(x, fam=families[i % 4]):
                return fam(x, r, p)

            got = find_root(f, a, b, tol=tol)
            want = _reference_find_root(f, a, b, tol=tol)
            assert a <= got <= b
            assert abs(got - want) <= tol + 4.0 * np.finfo(float).eps * abs(want)
