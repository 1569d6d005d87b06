import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from georev.geodesics import (
    DegenerateCrossingWarning,
    IntegrationError,
    NeedsMoreTimeError,
    clairaut_state,
    clairaut_trace,
    closure_check,
    detect_self_intersections,
    parallel_state,
    shoot,
    trace_length,
)
from georev.glued import GluedFamilyConfig, build_glued_family
from georev.spheroid import eval_Ic
from georev.surfaces import (
    ProfileCurve,
    ProfileSegment,
    RevolutionSurface,
    spheroid_surface,
    unit_sphere,
)
from conftest import solved_case
from polyline_oracle import polyline_crossings, same_pairs

FAILURE_MAP = [(N, eps) for eps in (0.02, 0.2, 0.453, 0.6) for N in range(1, 13)]


@pytest.fixture(scope="module")
def sphere():
    return unit_sphere()


class TestShoot:
    def test_equator_stays_flat(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 100.0)
        assert float(np.max(np.abs(tr.ys[1]))) < 1e-10
        clair, speed = tr.conservation_drift()
        assert clair < 1e-8 and speed < 1e-8

    def test_meridian_pole_passage(self, sphere):
        init = clairaut_state(sphere, 0.0, u2=0.0)
        tr = shoot(sphere, init, 13.0)
        # u1 is constant between poles and jumps by pi at each passage
        u1_vals = np.unique(np.round(tr.ys[0], 9))
        assert all(
            abs(v % math.pi) < 1e-9 or abs(v % math.pi - math.pi) < 1e-9
            for v in u1_vals
        )
        rec = closure_check(tr, 1e-8)
        assert rec is not None
        assert rec.period == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_conservation_over_long_horizon(self):
        surf = spheroid_surface(4.038)
        tr = shoot(surf, clairaut_state(surf, 0.98), 1000.0)
        clair, speed = tr.conservation_drift()
        assert clair < 1e-8
        assert speed < 1e-8

    def test_turning_point_matches_clairaut(self, case_n3_e02):
        sol, surf, tr = case_n3_e02
        assert abs(sol.max_u2 - math.acos(sol.c)) < 1e-6
        # the maximum is attained at a unique time within the first period half
        turns = tr.turning_times[tr.turning_times < 2.0 * sol.t0]
        maxima = [t for t in turns if float(tr.eval(t)[1]) > 0.0]
        assert len(maxima) == 1

    @pytest.mark.parametrize("method", ["RK45", "DOP853"])
    def test_parallel_has_no_turning_times(self, sphere, method):
        # u2' vanishes identically on the equator, so no turning point exists
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0, method=method)
        assert tr.turning_times.size == 0
        assert tr.meta["parallel"]

    @pytest.mark.parametrize("N", [3, 9])
    def test_dop853_closure_defects(self, N):
        sol, _, _ = solved_case(N, 0.2)
        assert sol.closure_position_defect < 1e-10
        assert sol.closure_tangent_defect < 1e-10

    def test_step_metadata(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 10.0)
        assert np.all(np.diff(tr.ts) > 0)


class TestClosure:
    def test_equator_closure(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        rec = closure_check(tr, 1e-10, t_candidate=2.0 * math.pi)
        assert rec is not None
        assert rec.position_defect < 1e-10
        assert rec.tangent_defect < 1e-10

    def test_closure_needs_candidate_period(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        with pytest.raises(ValueError, match="needs a candidate period"):
            closure_check(tr, 1e-8)
        assert tr.closure is None

    def test_solved_case_closes(self, case_n3_e02):
        sol, surf, tr = case_n3_e02
        assert sol.closure_position_defect < 1e-6
        assert sol.closure_tangent_defect < 1e-6

    def test_generic_spheroid_does_not_close(self):
        surf = spheroid_surface(4.5)
        c = 0.97
        ic = eval_Ic(4.5, c)
        assert abs(ic / math.pi - round(ic / math.pi)) > 1e-3  # irrational case
        tr = shoot(surf, clairaut_state(surf, c), 40.0)
        t0 = float(tr.turning_times[0])
        assert closure_check(tr, 1e-6, t_candidate=4.0 * t0) is None

    def test_needs_more_time(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 3.0)
        with pytest.raises(NeedsMoreTimeError):
            closure_check(tr, 1e-8, t_candidate=2.0 * math.pi)


class TestCrossings:
    def test_equator_has_none(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        closure_check(tr, 1e-8, t_candidate=2.0 * math.pi)
        assert detect_self_intersections(tr) == []

    def test_meridian_has_none(self, sphere):
        tr = shoot(sphere, clairaut_state(sphere, 0.0), 13.0)
        closure_check(tr, 1e-8)
        assert detect_self_intersections(tr) == []

    def test_solved_counts(self, case_n3_e02, case_n4_e01):
        sol3, _, tr3 = case_n3_e02
        sol4, _, tr4 = case_n4_e01
        assert sol3.crossings == 3
        assert sol4.crossings == 4

    def test_count_stable_under_refinement(self, case_n3_e02):
        # the polyline oracle agrees with the mirror route at both sample counts
        _, _, tr = case_n3_e02
        found = _crossing_pairs(tr)
        assert len(found) == 3
        for n in (2048, 8192):
            assert same_pairs(found, polyline_crossings(tr, n), tr.closure.period)

    def test_angles_transversal_and_consistent(self, case_n4_e02):
        sol, surf, tr = case_n4_e02
        for cr in tr.crossings:
            assert 1e-3 < cr.angle < math.pi - 1e-3
            # both passage points coincide on the surface
            y1, y2 = tr.eval(cr.t), tr.eval(cr.s)
            assert abs(y1[1] - y2[1]) < 1e-9
            du1 = (y1[0] - y2[0]) / (2.0 * math.pi)
            assert abs(du1 - round(du1)) < 1e-9

    def test_near_tangential_warns(self, case_n3_e02):
        # raising the floor above the true crossing angle must downgrade the
        # crossings to degeneracy warnings listing the time pairs
        _, _, tr = case_n3_e02
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            found = detect_self_intersections(tr, angle_floor=1.0)
        assert found == []
        assert any(issubclass(w.category, DegenerateCrossingWarning) for w in got)
        detect_self_intersections(tr)  # restore the genuine crossings

    def test_requires_closure(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        with pytest.raises(ValueError):
            detect_self_intersections(tr)


def _crossing_pairs(trace):
    return [(cr.t, cr.s) for cr in detect_self_intersections(trace)]


def _pair_defect(trace, cr):
    y = trace.eval(np.array([cr.t, cr.s]))
    return math.hypot(float(_wrap(y[0, 0] - y[0, 1])), float(y[1, 0] - y[1, 1]))


def _wrap(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _reshoot(sol, surf, method):
    """The solved geodesic shot again with another integrator, closure-checked."""
    tr = shoot(surf, clairaut_state(surf, sol.c), 1.05 * sol.length, method=method)
    assert closure_check(tr, 1e-6, t_candidate=4.0 * float(tr.turning_times[0]))
    return tr


class TestMirrorRoute:
    """Crossings from the mirror symmetry, against the polyline oracle."""

    @pytest.mark.parametrize("N,eps", FAILURE_MAP)
    def test_failure_map_dop853(self, N, eps):
        sol, _, tr = solved_case(N, eps)
        assert sol.crossings == N
        assert max(_pair_defect(tr, cr) for cr in tr.crossings) < 1e-9
        assert same_pairs(_crossing_pairs(tr), polyline_crossings(tr),
                          tr.closure.period)

    @pytest.mark.parametrize("N,eps", [(N, e) for N, e in FAILURE_MAP if N % 2])
    def test_odd_n_rk45(self, N, eps):
        # odd N crosses itself at the start point t = 0 = T, exactly once
        sol, surf, _ = solved_case(N, eps)
        tr = _reshoot(sol, surf, "RK45")
        found = detect_self_intersections(tr)
        assert len(found) == N
        assert max(_pair_defect(tr, cr) for cr in found) < 1e-9

    @pytest.mark.parametrize("N", [3, 9])
    def test_start_phase_shift(self, N):
        # launched mid-oscillation, the same geodesic has the same crossing points
        sol, surf, tr = solved_case(N, 0.2)
        T = tr.closure.period
        init = tr.state(0.37 * T)
        shifted = shoot(surf, init, 1.05 * T)
        assert closure_check(shifted, 1e-6, t_candidate=T)
        found = detect_self_intersections(shifted)
        assert len(found) == N
        assert all(init.t <= cr.t < cr.s < init.t + T for cr in found)
        for cr in found:
            assert min(math.hypot(_wrap(cr.u1 - ref.u1), cr.u2 - ref.u2)
                       for ref in tr.crossings) < 1e-8
        assert same_pairs(_crossing_pairs(shifted), polyline_crossings(shifted), T)

    def test_two_latitude_periods(self):
        # I_c = 5 pi / 2: u1 gains 5 pi per latitude period, so the geodesic
        # closes after q = 2 of them, winding p = 5 times: q (p - 1) = 8 crossings
        c = math.cos(0.2 * 0.999)
        b = brentq(lambda b: eval_Ic(b, c) - 2.5 * math.pi, 2.0, 3.5, xtol=1e-14)
        surf = spheroid_surface(b)
        tr = shoot(surf, clairaut_state(surf, c), 10.0 * math.pi / c)
        rec = closure_check(tr, 1e-6, t_candidate=8.0 * float(tr.turning_times[0]))
        assert rec is not None
        found = _crossing_pairs(tr)
        assert len(found) == 8
        assert same_pairs(found, polyline_crossings(tr), rec.period)

    @pytest.mark.parametrize("N,eps", [(3, 0.2), (9, 0.2), (7, 0.453)])
    def test_oracle_sample_counts(self, N, eps):
        _, _, tr = solved_case(N, eps)
        found = _crossing_pairs(tr)
        for n in (1024, 4096, 16384):
            assert same_pairs(found, polyline_crossings(tr, n), tr.closure.period)

    def test_pair_defect_raises(self, case_n3_e02):
        # a period off by 1e-6 moves the wrapped partner times off the curve
        _, _, tr = case_n3_e02
        with pytest.raises(IntegrationError, match="miss by"):
            detect_self_intersections(tr, period=tr.closure.period * (1.0 + 1e-6))
        detect_self_intersections(tr)  # restore the genuine crossings

    def test_rejects_period_off_the_latitude_lattice(self, case_n3_e02):
        _, _, tr = case_n3_e02
        with pytest.raises(ValueError, match="latitude period"):
            detect_self_intersections(tr, period=1.5 * tr.closure.period)


def _position_gap(trace, shot, period, n=512):
    ts = np.linspace(0.0, period, n)
    return float(np.max(np.abs(trace.eval(ts)[:2] - shot.eval(ts)[:2])))


class TestClairautTrace:
    """The quadrature trace against a DOP853 shot, the independent route."""

    def test_failure_map_against_the_shot(self):
        for N, eps in FAILURE_MAP:
            sol, surf, tr = solved_case(N, eps)
            T = tr.closure.period
            shot = shoot(surf, clairaut_state(surf, sol.c), T)
            assert _position_gap(tr, shot, T) < 1e-10, (N, eps)
            assert sol.crossings == N
            assert closure_check(tr, 1e-6, t_candidate=T) is not None

    def test_glued_band_against_the_shot(self):
        a, N = 0.005, 3
        sol, _, _ = solved_case(N, 0.9 * a)
        surf = build_glued_family(
            GluedFamilyConfig(a=a, neck_kind="spheroid-band", b=sol.b))
        t_max = 4.0 * (N + 1) * math.pi / (2.0 * sol.c) * a * 1.05
        tr = clairaut_trace(surf, sol.c * a, t_max)
        T = 4.0 * float(tr.turning_times[0])
        assert closure_check(tr, 1e-6, t_candidate=T) is not None
        assert len(detect_self_intersections(tr)) == N
        shot = shoot(surf, clairaut_state(surf, sol.c * a), T)
        assert _position_gap(tr, shot, T) < 1e-12

    def test_band_over_a_profile_join_raises(self):
        # turning latitudes at +-0.02 lie in the caps beyond the joins at +-a
        a = 0.005
        surf = build_glued_family(
            GluedFamilyConfig(a=a, neck_kind="spheroid-band", b=4.0))
        with pytest.raises(ValueError, match="profile join"):
            clairaut_trace(surf, a * math.cos(0.02), 1.0)

    def test_starts_at_the_clairaut_state(self, case_n3_e02):
        # both the scalar and the array evaluation pin time 0 to the state
        sol, surf, tr = case_n3_e02
        init = clairaut_state(surf, sol.c)
        expected = [init.u1, init.u2, init.du1, init.du2]
        assert tr.eval(0.0).tolist() == expected
        assert tr.eval(np.array([0.0, 1.0]))[:, 0].tolist() == expected
        assert tr.ys[:, 0].tolist() == expected

    def test_dip_between_the_brackets_raises(self):
        # a narrow waist at t = 0.9 where h falls to 0.12 lies inside the
        # bracket [0.785, 1.571] of the ladder from the equator, whose root
        # solve lands on h = 0.3 at t = 1.266, beyond the waist
        def jet(t):
            t = np.asarray(t, dtype=float)
            bump = 0.8 * np.exp(-0.5 * ((t - 0.9) / 0.01) ** 2)
            h = np.cos(t) * (1.0 - bump)
            dh = -np.sin(t) * (1.0 - bump) + np.cos(t) * bump * (t - 0.9) / 1e-4
            return h, np.sin(t), dh, np.cos(t), 0.0 * t, 0.0 * t

        surf = RevolutionSurface(ProfileCurve(
            [ProfileSegment(-math.pi / 2, math.pi / 2, jet)]))
        with pytest.raises(ValueError, match="not positive"):
            clairaut_trace(surf, 0.3, 1.0)

    def test_unreachable_constant_raises(self):
        with pytest.raises(ValueError, match="unreachable"):
            clairaut_trace(spheroid_surface(2.0), 1.5, 1.0)


class TestLength:
    def test_equator(self, sphere):
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        assert trace_length(tr, (0.0, 2.0 * math.pi)) == pytest.approx(
            2.0 * math.pi, abs=1e-9
        )

    def test_closed_geodesic_length(self, case_n3_e02):
        sol, _, tr = case_n3_e02
        assert abs(sol.length - 4.0 * sol.t0) < 1e-8

    def test_length_bounds(self, case_n3_e02, case_n4_e02):
        for sol, _, _ in (case_n3_e02, case_n4_e02):
            N = sol.N
            assert 2.0 * (N + 1) * math.pi * sol.c <= sol.length
            assert sol.length <= 2.0 * (N + 1) * math.pi / sol.c


class TestSymmetries:
    def test_reflection_rule(self, case_n3_e02):
        # u1(t) + u1(2 t0 - t) = (N+1) pi and u2(t) = u2(2 t0 - t)
        sol, surf, tr = case_n3_e02
        N = sol.N
        ts = np.linspace(0.0, sol.t0, 31)
        a = tr.eval(ts)
        b = tr.eval(2.0 * sol.t0 - ts)
        assert float(np.max(np.abs(a[0] + b[0] - (N + 1) * math.pi))) < 1e-6
        assert float(np.max(np.abs(a[1] - b[1]))) < 1e-6

    def test_u1_increment_is_half_Ic(self, case_n3_e02, case_n4_e01):
        for sol, surf, tr in (case_n3_e02, case_n4_e01):
            u1_t0 = float(tr.eval(sol.t0)[0])
            assert abs(u1_t0 - eval_Ic(sol.b, sol.c) / 2.0) < 1e-6
