import math

import numpy as np
import pytest

from georev.numerics import QuadratureSpec
from georev.surfaces import (
    PoleError,
    ProfileCurve,
    ProfileSegment,
    RevolutionSurface,
    cap_profile,
    catenoid_profile,
    cylinder_profile,
    dumbbell_profile,
    paraboloid_profile,
    sphere_profile,
    spheroid_profile,
    spheroid_surface,
    unit_sphere,
)


@pytest.fixture(scope="module")
def sphere():
    return unit_sphere()


@pytest.fixture(scope="module")
def cylinder():
    return RevolutionSurface(ProfileCurve([cylinder_profile(0.5, 0.0, 2.0)]))


@pytest.fixture(scope="module")
def catenoid():
    return RevolutionSurface(ProfileCurve([catenoid_profile(0.5, -0.4, 0.4)]))


class TestMetric:
    def test_sphere(self, sphere):
        assert sphere.metric_at(0.0) == (1.0, 0.0, 1.0)

    def test_cylinder(self, cylinder):
        E, F, G = cylinder.metric_at(1.0)
        assert (E, F, G) == (0.25, 0.0, 1.0)

    def test_spheroid_against_symbolic(self):
        # symbolic differentiation oracle for E = h^2, G = h'^2 + g'^2
        import sympy as sp

        t = sp.symbols("t")
        b = 4.0
        h_expr, g_expr = sp.cos(t), b * sp.sin(t)
        E_sym = sp.lambdify(t, h_expr**2)
        G_sym = sp.lambdify(t, sp.diff(h_expr, t) ** 2 + sp.diff(g_expr, t) ** 2)
        surf = spheroid_surface(b)
        for u2 in (0.0, 0.3, -0.7, 1.2):
            E, F, G = surf.metric_at(u2)
            assert F == 0.0
            assert abs(E - E_sym(u2)) < 1e-14
            assert abs(G - G_sym(u2)) < 1e-13

    def test_outside_domain(self, sphere):
        with pytest.raises(ValueError):
            sphere.metric_at(2.0)


class TestCurvatures:
    def test_sphere(self, sphere):
        K, H2, _, _ = sphere.curvature_grids(np.array([-1.0, 0.0, 0.7]))
        assert np.all(np.abs(K - 1.0) < 1e-12)
        assert np.all(np.abs(np.sqrt(H2) - 2.0) < 1e-12)

    def test_cylinder(self, cylinder):
        # kappa_meridian = 0 and kappa_parallel = 1 / 0.5
        K, H2, _, _ = cylinder.curvature_grids(np.array([1.0]))
        assert K[0] == 0.0
        assert abs(math.sqrt(H2[0]) - 1.0 / 0.5) < 1e-14

    def test_catenoid_minimal(self, catenoid):
        _, H2, _, _ = catenoid.curvature_grids(np.array([-0.3, 0.0, 0.35]))
        assert np.all(np.sqrt(H2) < 1e-12)

    def test_pole_limit(self, sphere):
        K, _, _, _ = sphere.curvature_grids(np.array([math.pi / 2.0]))
        assert abs(K[0] - 1.0) < 1e-9

    def test_pole_error_for_flat_cap(self):
        # 45-degree cone tip: profile meets the axis non-orthogonally
        with pytest.raises(PoleError):
            RevolutionSurface(ProfileCurve([_cone_segment()]))

    def test_open_end_with_slope_builds(self):
        # only closed ends are checked: the cylinder's ends (g' = 1) and the
        # paraboloid's rim (g' = 3) stay off the axis
        cyl = RevolutionSurface(ProfileCurve([cylinder_profile(0.5, 0.0, 2.0)]))
        assert cyl.closed_at_poles == (False, False)
        bowl = RevolutionSurface(ProfileCurve([paraboloid_profile(1.5, coeff=1.0)]))
        assert bowl.closed_at_poles == (True, False)


def _cone_segment():
    def jet(t):
        t = np.asarray(t, dtype=float)
        one, zero = np.ones_like(t), np.zeros_like(t)
        return t + 0.0, t + 0.0, one, one, zero, zero

    return ProfileSegment(0.0, 1.0, jet, label="cone")


class TestEnergies:
    def test_unit_sphere(self, sphere):
        A, W = sphere.area_and_willmore()
        assert abs(A - 4.0 * math.pi) < 1e-8
        assert abs(W - 4.0 * math.pi) < 1e-8

    def test_hemisphere(self):
        for a in (0.3, 1.0, 2.2):
            hemi = RevolutionSurface(
                ProfileCurve([sphere_profile(radius=a, phi_lo=0.0)])
            )
            A, W = hemi.area_and_willmore()
            assert abs(A - 2.0 * math.pi * a * a) < 1e-8
            assert abs(W - 2.0 * math.pi) < 1e-8

    def test_cylinder(self):
        a, h = 0.5, 2.0
        cyl = RevolutionSurface(ProfileCurve([cylinder_profile(a, 0.0, h)]))
        A, W = cyl.area_and_willmore()
        assert abs(A - 2.0 * math.pi * a * h) < 1e-8
        assert abs(W - math.pi * h / (2.0 * a)) < 1e-8

    def test_catenoid_willmore_zero(self, catenoid):
        _, W = catenoid.area_and_willmore()
        assert abs(W) < 1e-10

    def test_scale_invariance(self):
        surf = spheroid_surface(4.038)
        A, W = surf.area_and_willmore()
        for lam in (0.13, 2.0, 17.0):
            A2, W2 = surf.scaled(lam).area_and_willmore()
            assert abs(W2 - W) < 1e-10
            assert abs(A2 / A - lam * lam) < 1e-10 * lam * lam

    def test_closed_surface_willmore_floor(self):
        for surf in (unit_sphere(), spheroid_surface(2.0), spheroid_surface(5.0)):
            _, W = surf.area_and_willmore()
            assert W >= 4.0 * math.pi - 1e-8

    def test_global_gauss_bonnet(self):
        for surf in (unit_sphere(), spheroid_surface(4.038), spheroid_surface(1.7)):
            assert abs(surf.gauss_curvature_integral() - 4.0 * math.pi) < 1e-6

    def test_subrange_additivity(self, sphere):
        A1, W1 = sphere.area_and_willmore((-math.pi / 2, 0.3))
        A2, W2 = sphere.area_and_willmore((0.3, math.pi / 2))
        A, W = sphere.area_and_willmore()
        assert abs(A1 + A2 - A) < 1e-9
        assert abs(W1 + W2 - W) < 1e-9


class TestDiameter:
    def test_sphere(self, sphere):
        assert abs(sphere.diameter_of(samples=4096) - 2.0) < 1e-6

    def test_cylinder_corners(self, cylinder):
        expect = math.sqrt(4 * 0.25 + 4.0)
        assert abs(cylinder.diameter_of(samples=4096) - expect) < 1e-6

    def test_cap_chord_vs_bruteforce(self):
        cap = RevolutionSurface(
            ProfileCurve([sphere_profile(radius=0.7, phi_lo=0.25)])
        )
        diam = cap.diameter_of(samples=4096)
        chord = 2.0 * 0.7 * math.cos(0.25)
        assert abs(diam - chord) < 1e-6
        # brute-force pairwise oracle over a full 3D sample cloud
        u1 = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
        u2 = np.linspace(0.25, math.pi / 2, 80)
        uu1, uu2 = np.meshgrid(u1, u2)
        pts = cap.point(uu1.ravel(), uu2.ravel())
        best = 0.0
        for i0 in range(0, len(pts), 512):
            chunk = pts[i0 : i0 + 512]
            d = np.sum((chunk[:, None, :] - pts[None, :, :]) ** 2, axis=2)
            best = max(best, float(np.max(d)))
        brute = math.sqrt(best)
        assert brute <= diam + 1e-9
        assert brute >= diam - 5e-3

    def test_min_samples(self, sphere):
        with pytest.raises(ValueError):
            sphere.diameter_of(samples=32)


class TestProfilePlumbing:
    def test_c1_join_validation(self):
        with pytest.raises(ValueError):
            ProfileCurve(
                [
                    sphere_profile(1.0, 0.0, -math.pi / 2, 0.0),
                    cylinder_profile(0.7, 0.0, 1.0),  # radius jump at the join
                ]
            )

    def test_dumbbell_neck(self):
        surf = RevolutionSurface(ProfileCurve([dumbbell_profile()]))
        assert abs(surf.profile.dh(0.0)) < 1e-15
        assert float(surf.profile.h(0.0)) == pytest.approx(0.4)

    def test_quadrature_spec_override(self, sphere):
        coarse = QuadratureSpec(abs_tol=1e-6, rel_tol=1e-6, level=6)
        A, W = sphere.area_and_willmore(spec=coarse)
        assert abs(A - 4 * math.pi) < 1e-5


def _jet_profiles():
    from georev.glued import GluedFamilyConfig, build_glued_family

    return {
        "dumbbell": ProfileCurve([dumbbell_profile()]),
        "glued-cylinder": build_glued_family(GluedFamilyConfig(a=0.1)).profile,
    }


class TestJet:
    @pytest.mark.parametrize("name", ["dumbbell", "glued-cylinder"])
    def test_matches_single_accessors(self, name):
        prof = _jet_profiles()[name]
        # interior points plus every break, the interior ones exactly
        ts = np.concatenate([np.linspace(prof.t_min, prof.t_max, 257), prof.breaks])
        accessors = (prof.h, prof.dh, prof.d2h, prof.dg, prof.d2g)
        for t in [ts] + [float(v) for v in ts]:
            jet = prof.jet(t)
            assert len(jet) == 5
            for got, f in zip(jet, accessors):
                want = f(t)
                assert type(got) is type(want)
                np.testing.assert_array_equal(got, want)

    def test_break_takes_the_starting_segment(self):
        prof = _jet_profiles()["glued-cylinder"]
        assert len(prof.segments) == 4
        for k, b in enumerate(prof.interior_breaks(), start=1):
            h, _, dh, dg, d2h, d2g = prof.segments[k].jet(b)
            want = [float(v) for v in (h, dh, d2h, dg, d2g)]
            assert prof.jet(b) == want
            assert [float(v[0]) for v in prof.jet(np.array([b]))] == want

    @pytest.mark.parametrize("name", ["dumbbell", "glued-cylinder"])
    def test_speed_and_christoffel(self, name):
        prof = _jet_profiles()[name]
        ts = np.linspace(prof.t_min + 1e-3, prof.t_max - 1e-3, 101)
        h, dh_h, hdh_gg, dgam_gam, gam = prof.christoffel(ts)
        np.testing.assert_array_equal(h, prof.h(ts))
        np.testing.assert_array_equal(gam, prof.speed(ts))
        np.testing.assert_array_equal(dh_h, prof.dh(ts) / h)
        np.testing.assert_array_equal(hdh_gg, h * prof.dh(ts) / (gam * gam))
        np.testing.assert_array_equal(dgam_gam, prof.dspeed(ts) / gam)
        for t in (ts, float(ts[7]), prof.breaks, float(prof.breaks[-2])):
            mh, mgam = prof.metric_factors(t)
            ph, pg = prof.position(t)
            for got, want in ((mh, prof.h(t)), (mgam, prof.speed(t)),
                              (ph, prof.h(t)), (pg, prof.g(t))):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _masked_eval(prof, comps, t):
    """The segment-masked array loop of ``ProfileCurve._eval``, kept as the
    reference for its single-segment fast path."""
    t = np.asarray(t, dtype=float)
    outs = [np.empty_like(t) for _ in comps]
    idx = np.clip(np.searchsorted(prof.breaks, t, side="right") - 1, 0,
                  len(prof.segments) - 1)
    for i, seg in enumerate(prof.segments):
        m = idx == i
        if np.any(m):
            jet = seg.jet(t[m])
            for out, k in zip(outs, comps):
                out[m] = jet[k]
    return outs


class TestSingleSegmentFastPath:
    PROFILES = {
        "sphere": sphere_profile,
        "dumbbell": dumbbell_profile,
        "spheroid": lambda: spheroid_profile(0.6),
        "cylinder": lambda: cylinder_profile(0.5, 0.0, 2.0),
        "paraboloid": lambda: paraboloid_profile(1.5),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_equals_masked_loop(self, name):
        prof = ProfileCurve([self.PROFILES[name]()])
        lo, hi = prof.t_min, prof.t_max
        inside = np.linspace(lo, hi, 97)
        outside = np.array([lo - 0.5, lo - 1e-9, hi + 1e-9, hi + 0.5])
        grid = np.linspace(lo, hi, 35).reshape(5, 7)
        comps = tuple(range(6))
        cases = [inside, outside, grid, grid.T, np.empty(0), np.empty((0, 3)),
                 inside.reshape(-1, 1)[::2, 0], [0.5 * (lo + hi)]]
        for t in cases:
            got = prof._eval(comps, t)
            want = _masked_eval(prof, comps, t)
            for g, w in zip(got, want):
                assert g.dtype == np.float64
                assert g.shape == np.shape(t)
                assert g.tobytes() == w.tobytes()


# -- the six-evaluator segments of the builders before ``ProfileSegment.jet``:
# one lambda per component, kept as the reference for every builder's jet


def _ref_sphere(R=1.0, z0=0.0):
    return (
        lambda t: R * np.cos(t),
        lambda t: z0 + R * np.sin(t),
        lambda t: -R * np.sin(t),
        lambda t: R * np.cos(t),
        lambda t: -R * np.cos(t),
        lambda t: -R * np.sin(t),
    )


def _ref_cylinder(a):
    return (
        lambda t: a * np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.asarray(t, dtype=float) + 0.0,
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def _ref_catenoid(a, z0=0.0):
    return (
        lambda t: a * np.cosh(t / a),
        lambda t: np.asarray(t, dtype=float) + z0,
        lambda t: np.sinh(t / a),
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.cosh(t / a) / a,
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def _ref_spheroid(b, s=1.0, z0=0.0):
    return (
        lambda t: s * np.cos(t),
        lambda t: z0 + s * b * np.sin(t),
        lambda t: -s * np.sin(t),
        lambda t: s * b * np.cos(t),
        lambda t: -s * np.cos(t),
        lambda t: -s * b * np.sin(t),
    )


def _ref_paraboloid(c=0.5):
    return (
        lambda t: np.asarray(t, dtype=float) + 0.0,
        lambda t: c * np.asarray(t, dtype=float) ** 2,
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: 2.0 * c * np.asarray(t, dtype=float),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: 2.0 * c * np.ones_like(np.asarray(t, dtype=float)),
    )


def _ref_dumbbell(d=0.6, sigma=0.3):
    s2 = sigma ** 2

    def bump(t):
        return np.exp(-np.asarray(t, dtype=float) ** 2 / (2.0 * s2))

    return (
        lambda t: 1.0 - d * bump(t),
        lambda t: np.asarray(t, dtype=float) + 0.0,
        lambda t: d * np.asarray(t, dtype=float) / s2 * bump(t),
        lambda t: np.ones_like(np.asarray(t, dtype=float)),
        lambda t: d / s2 * (1.0 - np.asarray(t, dtype=float) ** 2 / s2) * bump(t),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


def _ref_shift(fns, delta):
    return tuple(lambda t, _f=f: _f(np.asarray(t, dtype=float) - delta) for f in fns)


def _ref_scaled(fns, lam):
    return tuple(lambda t, _f=f: lam * _f(t) for f in fns)


def _jet_cases():
    from georev.glued import _shift_segment

    cat = catenoid_profile(0.1, -0.3, 0.0, z_offset=0.9)
    return {
        "sphere": (sphere_profile(), _ref_sphere()),
        "cap": (cap_profile(0.4, 0.7, 0.2), _ref_sphere(0.4, 0.7)),
        "cylinder": (cylinder_profile(0.5, 0.0, 2.0), _ref_cylinder(0.5)),
        "catenoid": (catenoid_profile(0.5, -0.4, 0.4), _ref_catenoid(0.5)),
        "catenoid-offset": (cat, _ref_catenoid(0.1, 0.9)),
        "spheroid": (spheroid_profile(1.7, 0.3, -1.2, 1.0, 0.25),
                     _ref_spheroid(1.7, 0.3, 0.25)),
        "paraboloid": (paraboloid_profile(1.5, 0.8), _ref_paraboloid(0.8)),
        "dumbbell": (dumbbell_profile(), _ref_dumbbell()),
        "shifted-catenoid": (_shift_segment(cat, 1.3),
                             _ref_shift(_ref_catenoid(0.1, 0.9), 1.3)),
        "scaled-spheroid": (
            spheroid_surface(0.6).scaled(2.5).profile.segments[0],
            _ref_scaled(_ref_spheroid(0.6), 2.5),
        ),
    }


class TestSegmentJet:
    """Each builder's jet equals the six evaluators it replaced, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_jet_cases()))
    def test_equals_six_evaluators(self, name):
        seg, ref = _jet_cases()[name]
        lo, hi = seg.t_lo, seg.t_hi
        inside = np.linspace(lo, hi, 53)
        cases = [0.5 * (lo + hi), lo, hi, np.float64(lo + 0.3 * (hi - lo)),
                 inside, inside.reshape(-1, 1)[::2, 0], inside[1:].reshape(4, 13),
                 np.array([lo, hi])]
        for t in cases:
            jet = seg.jet(t)
            assert len(jet) == 6
            for k, (got, f) in enumerate(zip(jet, ref)):
                want = f(t)
                assert type(got) is type(want), (k, t)
                assert np.shape(got) == np.shape(want), (k, t)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (k, t)
