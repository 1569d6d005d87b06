import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from georev import flow
from georev.flow import (
    AvoidanceViolation,
    ChartError,
    FlowCurve,
    FlowError,
    FlowPolicy,
    avoidance_harness,
    curvature_velocity,
    evolve,
    parallel_curve,
)
from georev.geodesics import closure_check, parallel_state, shoot
from georev.surfaces import (
    ProfileCurve,
    RevolutionSurface,
    dumbbell_profile,
    unit_sphere,
)
from flow_oracle import curve_from_trace, latitude_ode_rhs


@pytest.fixture(scope="module")
def dumbbell():
    return RevolutionSurface(ProfileCurve([dumbbell_profile()]), name="dumbbell")


@pytest.fixture(scope="module")
def sphere():
    return unit_sphere()


class TestCurvature:
    def test_parallel_curvature_closed_form(self, dumbbell):
        # |kappa_g| of the parallel at u2 equals |h'| / (h gamma)
        for u2 in (0.1, 0.25, -0.4):
            c = parallel_curve(dumbbell, u2, m=256)
            _, kappa = curvature_velocity(dumbbell, c)
            prof = dumbbell.profile
            expect = abs(float(prof.dh(u2))) / (
                float(prof.h(u2)) * float(prof.speed(u2))
            )
            assert float(np.max(np.abs(kappa - expect))) < 1e-4

    def test_neck_parallel_is_stationary_point(self, dumbbell):
        c = parallel_curve(dumbbell, 0.0, m=96)
        vel, kappa = curvature_velocity(dumbbell, c)
        assert float(np.max(np.abs(vel))) < 1e-14
        assert float(np.max(kappa)) < 1e-14


class TestEvolve:
    def test_neck_stationary(self, dumbbell):
        res = evolve(dumbbell, parallel_curve(dumbbell, 0.0, m=64), 10.0,
                     FlowPolicy(convergence_tol=0.0))
        assert float(np.max(np.abs(res.final.samples[:, 1]))) < 1e-6

    def test_offset_converges_to_neck(self, dumbbell):
        res = evolve(dumbbell, parallel_curve(dumbbell, 0.25, m=96), 5.0)
        assert res.converged
        assert float(np.max(res.final.kappa_g)) < 1e-3
        assert abs(float(res.final.samples[0, 1])) < 1e-2

    def test_length_monotone(self, dumbbell):
        res = evolve(dumbbell, parallel_curve(dumbbell, 0.3, m=96), 2.0)
        assert np.all(np.diff(res.lengths) <= 1e-12)

    def test_sphere_latitude_shrinks(self, sphere):
        res = evolve(sphere, parallel_curve(sphere, 0.3, m=96), 10.0,
                     FlowPolicy(shrink_floor_frac=0.5))
        assert res.shrinking
        assert res.lengths[-1] < 0.55 * res.lengths[0]
        assert np.all(np.diff(res.lengths) <= 1e-12)

    def test_scalar_ode_reduction(self, dumbbell):
        res = evolve(dumbbell, parallel_curve(dumbbell, 0.25, m=96), 0.5,
                     FlowPolicy(convergence_tol=1e-12))
        ode = solve_ivp(latitude_ode_rhs(dumbbell), (0.0, res.final.time),
                        [0.25], rtol=1e-12, atol=1e-14)
        u2_flow = float(res.final.samples[0, 1])
        assert abs(u2_flow - float(ode.y[0][-1])) < 1e-4
        # the curve stays an exact parallel
        assert float(np.ptp(res.final.samples[:, 1])) < 1e-12

    def test_geodesic_resampled_barely_moves(self, sphere, case_n3_e01):
        # equator: exactly stationary
        tr = shoot(sphere, parallel_state(sphere, 0.0), 7.0)
        closure_check(tr, 1e-8, t_candidate=2 * math.pi)
        fc = curve_from_trace(tr, m=256)
        res = evolve(sphere, fc, 1.0, FlowPolicy(convergence_tol=0.0))
        assert float(np.max(np.abs(res.final.samples - fc.samples))) < 1e-10
        # wiggly closed geodesic: sup movement far below the bound
        sol, surf, tr = case_n3_e01
        fc = curve_from_trace(tr, m=512)
        res = evolve(surf, fc, 1.0, FlowPolicy(convergence_tol=0.0))
        assert float(np.max(np.abs(res.final.samples - fc.samples))) < 1e-5

    def test_chart_exit_raises(self):
        # on a bulge (negative neck depth) the parallels flow away from the
        # waist and leave the band
        bulge = RevolutionSurface(
            ProfileCurve([dumbbell_profile(half_width=0.5, neck_depth=-0.3)]),
            name="bulge",
        )
        with pytest.raises(ChartError):
            evolve(bulge, parallel_curve(bulge, 0.3, m=64), 10.0,
                   FlowPolicy(convergence_tol=0.0))

    def test_snapshots_cadence(self, dumbbell):
        t_end = 0.4
        res = evolve(dumbbell, parallel_curve(dumbbell, 0.2, m=64), t_end,
                     FlowPolicy(convergence_tol=1e-9))
        # the initial curve, one snapshot per t_end / SNAPSHOTS, the final curve
        assert len(res.snapshots) == flow.SNAPSHOTS + 2
        cadence = t_end / flow.SNAPSHOTS
        for k, snap in enumerate(res.snapshots[1:-1], start=1):
            # the first step that reaches the k-th mark
            assert snap.time == min(t for t in res.times if t >= k * cadence - 1e-12)
        assert res.snapshots[-1].time == t_end


class TestAvoidance:
    def test_latitude_vs_stationary_neck(self, dumbbell):
        rec = avoidance_harness(
            dumbbell,
            parallel_curve(dumbbell, 0.25, m=64),
            parallel_curve(dumbbell, 0.0, m=64),
            1.0,
            c2_stationary=True,
        )
        assert rec.min_over_time > 0.0
        assert rec.d_min[-1] == rec.min_over_time  # monotone approach

    def test_two_latitudes_opposite_sides(self, dumbbell):
        rec = avoidance_harness(
            dumbbell,
            parallel_curve(dumbbell, 0.25, m=64),
            parallel_curve(dumbbell, -0.25, m=64),
            1.0,
        )
        assert rec.min_over_time > 0.0

    def test_identical_curves_rejected(self, dumbbell):
        c = parallel_curve(dumbbell, 0.2, m=64)
        with pytest.raises(ValueError):
            avoidance_harness(dumbbell, c.copy(), c.copy(), 0.5)

    @pytest.mark.parametrize("m", [7, 64, 96])
    def test_min_sq_distance_equals_axis_sum(self, m):
        # the component sum adds in the order of the length-3 axis sum
        rng = np.random.default_rng(m)
        for _ in range(20):
            pa = rng.normal(size=(m, 3))
            pb = rng.normal(size=(m + 3, 3)) * rng.uniform(0.1, 10.0)
            want = float(np.min(np.sum((pa[:, None, :] - pb[None, :, :]) ** 2,
                                       axis=2)))
            assert flow._min_sq_distance(pa, pb) == want

    def test_violation_machinery(self, dumbbell):
        # sanity: the exception type exists and is raised on contrived contact
        rec_type = AvoidanceViolation("synthetic")
        assert "synthetic" in str(rec_type)


class TestLengthMonotonicityGuard:
    """Both loops refuse a step that lengthens the curve."""

    @pytest.fixture
    def backward_flow(self, monkeypatch):
        forward = flow.curvature_velocity

        def backward(*args, **kwargs):
            vel, kappa = forward(*args, **kwargs)
            return -vel, kappa

        monkeypatch.setattr(flow, "curvature_velocity", backward)

    def test_evolve(self, dumbbell, backward_flow):
        with pytest.raises(FlowError, match="length increased"):
            evolve(dumbbell, parallel_curve(dumbbell, 0.25, m=64), 1.0)

    @pytest.mark.parametrize("c2_u2, stationary", [(0.0, True), (-0.25, False)])
    def test_avoidance_harness(self, dumbbell, backward_flow, c2_u2, stationary):
        with pytest.raises(FlowError, match="length increased"):
            avoidance_harness(dumbbell, parallel_curve(dumbbell, 0.25, m=64),
                              parallel_curve(dumbbell, c2_u2, m=64), 1.0,
                              c2_stationary=stationary)


class TestResample:
    def test_triple_winding_closes(self, dumbbell):
        # (u1[0] + 6 pi) - 6 pi != u1[0] in floating point at this offset;
        # the periodic spline must still see a closed detrended u1
        s = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
        c = FlowCurve(np.stack([0.01 + 3.0 * s, np.full(96, 0.25)], axis=1),
                      winding=3)
        new = flow._resample_uniform(c, dumbbell, c.metric_lengths(dumbbell))
        assert new.winding == 3
        assert float(np.max(np.abs(new.samples - c.samples))) < 1e-12


class TestImplicitSolve:
    """The cyclic tridiagonal solve of the step against a dense solve."""

    @pytest.mark.parametrize("m", [8, 64, 128])
    @pytest.mark.parametrize("dt_scale", [1.0, 10.0])
    def test_matches_dense_solve(self, m, dt_scale):
        rng = np.random.default_rng(m)
        seg = rng.uniform(0.2, 1.0, m) * (2.0 * math.pi / m)  # uneven lengths
        vel = rng.normal(size=(m, 2))
        dt = dt_scale * flow.DT_SAFETY * float(np.min(seg)) ** 2
        # I - dt L with L the periodic second difference in arclength
        h_next, h_prev = seg, np.roll(seg, 1)
        denom = h_prev * h_next * (h_prev + h_next)
        v_m, v_p = 2.0 * h_next / denom, 2.0 * h_prev / denom
        L = np.diag(-(v_m + v_p))
        i = np.arange(m)
        L[i, (i - 1) % m] += v_m
        L[i, (i + 1) % m] += v_p
        want = np.linalg.solve(np.eye(m) - dt * L, dt * vel)
        got = flow._increment(vel, seg, dt)
        assert float(np.max(np.abs(got - want))) < 1e-13 * float(np.max(np.abs(want)))


# -- reference loops: the flow as it was before the step kernel carried the
# segment lengths between steps.  Every length is recomputed where it is
# used, from np.roll offsets and separate h and speed evaluations; the
# increment comes from the step's own cyclic solve and dt rule, which
# TestImplicitSolve checks on its own.


def _ref_closed_offsets(self):
    shift = np.array([2.0 * math.pi * self.winding, 0.0])
    nxt = np.roll(self.samples, -1, axis=0)
    nxt[-1] += shift
    prv = np.roll(self.samples, 1, axis=0)
    prv[0] -= shift
    return prv, nxt


def _ref_metric_lengths(self, surface, nxt=None):
    _, nxt = self.closed_offsets()
    d = nxt - self.samples
    mid = 0.5 * (self.samples[:, 1] + nxt[:, 1])
    h = np.asarray(surface.profile.h(mid))
    gam = np.asarray(surface.profile.speed(mid))
    return np.sqrt((h * d[:, 0]) ** 2 + (gam * d[:, 1]) ** 2)


def _ref_evolve(surface, init, t_end, policy):
    """``evolve``'s loop with every length recomputed; also counts resamples."""
    lo, hi = surface.u2_range
    pad = 1e-9
    curve = init.copy()
    L0 = curve.length(surface)
    snapshot_dt = t_end / flow.SNAPSHOTS
    snapshots = [curve.copy()]
    times = [curve.time]
    lengths = [L0]
    kappas = []
    converged = shrinking = False
    resamples = 0
    next_snap = curve.time + snapshot_dt
    length = L0
    for step in range(flow.MAX_STEPS):
        if curve.time >= t_end - 1e-14:
            break
        vel, kappa = flow.curvature_velocity(surface, curve)
        max_k = float(np.max(kappa))
        kappas.append(max_k)
        if max_k < policy.convergence_tol:
            converged = True
            break
        seg = curve.metric_lengths(surface)
        dt = min(flow._time_step(curve, seg), t_end - curve.time)
        curve.samples = curve.samples + flow._increment(vel, seg, dt)
        curve.time += dt
        assert not (np.any(curve.samples[:, 1] <= lo + pad)
                    or np.any(curve.samples[:, 1] >= hi - pad))
        new_len = curve.length(surface)
        assert new_len <= length + 1e-12
        length = new_len
        if new_len < policy.shrink_floor_frac * L0:
            shrinking = True
            break
        if (step + 1) % flow.RESAMPLE_CHECK_EVERY == 0:
            seg = curve.metric_lengths(surface)
            if float(np.max(seg)) > flow.RESAMPLE_RATIO * float(np.min(seg)):
                curve = flow._resample_uniform(curve, surface,
                                               curve.metric_lengths(surface))
                resamples += 1
                length = curve.length(surface)
        if curve.time >= next_snap - 1e-12:
            snap = curve.copy()
            snap.kappa_g = kappa
            snapshots.append(snap)
            next_snap += snapshot_dt
        times.append(curve.time)
        lengths.append(length)
    curve.kappa_g = flow.curvature_velocity(surface, curve)[1]
    snapshots.append(curve.copy())
    res = flow.FlowResult(snapshots, curve, converged, shrinking,
                          np.asarray(times), np.asarray(lengths),
                          np.asarray(kappas) if kappas else np.empty(0))
    return res, resamples


def _ref_harness(surface, c1, c2, t_end, c2_stationary):
    a = c1.copy()
    b = c2.copy()

    def d_min():
        pa = a.ambient_points(surface)
        pb = b.ambient_points(surface)
        return float(np.min(np.sum((pa[:, None, :] - pb[None, :, :]) ** 2,
                                   axis=2)))

    times = [0.0]
    dmins = [d_min()]
    t = 0.0
    while t < t_end - 1e-14:
        vel_a, _ = flow.curvature_velocity(surface, a)
        seg_a = a.metric_lengths(surface)
        dt = flow._time_step(a, seg_a)
        if not c2_stationary:
            vel_b, _ = flow.curvature_velocity(surface, b)
            seg_b = b.metric_lengths(surface)
            dt = min(dt, flow._time_step(b, seg_b))
        dt = min(dt, t_end - t)
        a.samples = a.samples + flow._increment(vel_a, seg_a, dt)
        if not c2_stationary:
            b.samples = b.samples + flow._increment(vel_b, seg_b, dt)
        t += dt
        times.append(t)
        dmins.append(d_min())
    return flow.AvoidanceRecord(np.asarray(times), np.asarray(dmins))


def _wavy_offset(surface, m=96):
    """A non-parallel curve near u2 = 0.25 with uneven sample spacing."""
    s = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    return FlowCurve(np.stack([s + 0.3 * np.sin(s), 0.25 + 0.05 * np.cos(2 * s)],
                              axis=1))


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestReferenceLoop:
    """The step kernel takes the reference loops' steps, float for float."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def use():
            monkeypatch.setattr(FlowCurve, "closed_offsets", _ref_closed_offsets)
            monkeypatch.setattr(FlowCurve, "metric_lengths", _ref_metric_lengths)
        return use

    @pytest.mark.parametrize("case", ["neck", "wavy-offset", "sphere-latitude"])
    def test_evolve(self, case, dumbbell, sphere, reference):
        if case == "neck":
            args = (dumbbell, parallel_curve(dumbbell, 0.0, m=64), 0.3,
                    FlowPolicy(convergence_tol=0.0))
        elif case == "wavy-offset":
            args = (dumbbell, _wavy_offset(dumbbell), 0.2, FlowPolicy())
        else:
            args = (sphere, parallel_curve(sphere, 0.3, m=96), 10.0,
                    FlowPolicy(shrink_floor_frac=0.5))
        got = evolve(*args)
        reference()
        want, resamples = _ref_evolve(*args)
        if case == "wavy-offset":
            assert resamples >= 1
        if case == "sphere-latitude":
            assert got.shrinking
        assert (got.converged, got.shrinking) == (want.converged, want.shrinking)
        for name in ("times", "lengths", "max_kappa"):
            assert _same(getattr(got, name), getattr(want, name)), name
        assert len(got.snapshots) == len(want.snapshots)
        for g, w in zip(got.snapshots + [got.final], want.snapshots + [want.final]):
            assert g.time == w.time
            assert _same(g.samples, w.samples)
            assert (g.kappa_g is None) == (w.kappa_g is None)
            if g.kappa_g is not None:
                assert _same(g.kappa_g, w.kappa_g)

    @pytest.mark.parametrize("c2_u2, stationary", [(0.0, True), (-0.25, False)])
    def test_avoidance_harness(self, c2_u2, stationary, dumbbell, reference):
        args = (dumbbell, parallel_curve(dumbbell, 0.25, m=64),
                parallel_curve(dumbbell, c2_u2, m=64), 1.0, stationary)
        got = avoidance_harness(*args)
        reference()
        want = _ref_harness(*args)
        assert len(got.times) > 100
        assert _same(got.times, want.times)
        assert _same(got.d_min, want.d_min)
