import math

import numpy as np
import pytest

from georev.geodesics import clairaut_trace
from georev.spheroid import (
    eval_Ic,
    ic_sandwich_bounds,
    solve_for_geodesic,
)
from georev.surfaces import spheroid_surface

# (N, eps) -> published figure parameters
FIGURE_CASES = {
    (3, 0.2): (4.038, 0.980),
    (3, 0.1): (4.009, 0.995),
    (4, 0.2): (5.049, 0.980),
    (4, 0.1): (5.012, 0.995),
}


class TestClosureIntegral:
    def test_round_sphere_value(self):
        # b = 1: substituting s = y^2 gives c * integral ds/(s sqrt((s-c^2)(1-s)))
        # = c * pi / sqrt(c^2) = pi for every c in (0, 1)
        for c in np.arange(0.1, 0.95, 0.1):
            assert abs(eval_Ic(1.0, float(c)) - math.pi) < 1e-9

    def test_tanh_sinh_vs_smooth_substitution(self):
        # the u1 advance of a half-oscillation of the Clairaut quadrature,
        # whose substitution u2 = m + r sin(phi) removes the endpoint
        # singularities, is a second route to I_c
        rng = np.random.default_rng(11)
        for _ in range(25):
            b = float(rng.uniform(1.0, 6.0))
            c = float(rng.uniform(0.05, 0.999))
            advance = clairaut_trace(spheroid_surface(b), c, 1.0).sol.half_advance
            assert abs(eval_Ic(b, c) - advance) < 1e-10

    def test_sandwich_at_reference_point(self):
        lo, hi = ic_sandwich_bounds(5.0, 0.9)
        val = eval_Ic(5.0, 0.9)
        assert lo < val < hi

    def test_sandwich_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = float(rng.uniform(1.0 + 1e-6, 6.0))
            c = float(rng.uniform(0.05, 0.999))
            lo, hi = ic_sandwich_bounds(b, c)
            val = eval_Ic(b, c)
            assert lo < val < hi, (b, c)

    def test_monotone_in_b(self):
        for c in (0.3, 0.9, 0.99):
            vals = [eval_Ic(b, c) for b in np.linspace(1.0, 6.0, 12)]
            assert all(y > x for x, y in zip(vals, vals[1:]))

    def test_limit_c_to_one(self):
        # I_c -> b pi as c -> 1
        for b in (2.0, 4.038):
            val = eval_Ic(b, 1.0 - 1e-6)
            assert abs(val - b * math.pi) < 1e-3 * b * math.pi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eval_Ic(0.5, 0.5)
        with pytest.raises(ValueError):
            eval_Ic(2.0, 1.0)


class TestSolver:
    @pytest.mark.parametrize("key", sorted(FIGURE_CASES))
    def test_figure_parameters(self, key, request):
        N, eps = key
        fixture = {
            (3, 0.2): "case_n3_e02",
            (3, 0.1): "case_n3_e01",
            (4, 0.2): "case_n4_e02",
            (4, 0.1): "case_n4_e01",
        }[key]
        sol, surf, trace = request.getfixturevalue(fixture)
        b_ref, c_ref = FIGURE_CASES[key]
        assert abs(sol.b - b_ref) < 0.01
        assert abs(sol.c - c_ref) < 0.005
        assert sol.crossings == N

    def test_closure_integral_at_root(self, case_n3_e02):
        sol, _, _ = case_n3_e02
        assert abs(eval_Ic(sol.b, sol.c) - 4.0 * math.pi) < 1e-9

    def test_invariants(self, case_n4_e02):
        sol, _, _ = case_n4_e02
        assert sol.check_invariants() == []
        assert sol.N + 1 < sol.b < sol.N + 1 + sol.eps
        assert 1.0 - sol.eps < sol.c < 1.0
        assert sol.max_u2 < sol.eps

    def test_u1_increment_consistency(self, case_n3_e02, case_n3_e01,
                                      case_n4_e02, case_n4_e01):
        for sol, surf, tr in (case_n3_e02, case_n3_e01, case_n4_e02,
                              case_n4_e01):
            u1_t0 = float(tr.eval(sol.t0)[0])
            assert abs(u1_t0 - eval_Ic(sol.b, sol.c) / 2.0) < 1e-6

    def test_json_roundtrip(self, case_n3_e02):
        import json

        sol, _, _ = case_n3_e02
        d = json.loads(json.dumps(sol.to_dict()))
        assert d["N"] == 3
        assert d["crossings"] == 3
        assert d["closure_defect"] < 1e-6

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            solve_for_geodesic(0, 0.2)
        with pytest.raises(ValueError):
            solve_for_geodesic(3, 1.5)

    def test_small_eps_case(self):
        sol, _, _ = solve_for_geodesic(2, 0.05)
        assert sol.crossings == 2
        assert sol.check_invariants() == []

    def test_closure_failure_reports_defects(self):
        from georev.spheroid import SolverError

        with pytest.raises(SolverError, match="position defect") as exc:
            solve_for_geodesic(3, 0.2, closure_tol=1e-30)
        assert "nan" not in str(exc.value)
