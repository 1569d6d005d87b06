import math

import numpy as np
import pytest

from georev.numerics import (
    BracketError,
    IntegrandError,
    QuadratureError,
    QuadratureSpec,
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
