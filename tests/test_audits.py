import math

import numpy as np
import pytest

from georev.audits import (
    PatchSpec,
    diameter_bound_audit,
    injectivity_bound_report,
    interior_point_audit,
    length_energy_ratio,
    monotonicity_audit,
    random_caps,
)
from georev.glued import GluedFamilyConfig, build_glued_family
from georev.surfaces import spheroid_surface, unit_sphere


@pytest.fixture(scope="module")
def sphere():
    return unit_sphere()


@pytest.fixture(scope="module")
def hemisphere_patch(sphere):
    return PatchSpec(sphere, -math.pi / 2, 0.0)


class TestPatchSpec:
    def test_cap_has_single_boundary(self, hemisphere_patch):
        assert hemisphere_patch.is_cap
        assert hemisphere_patch.boundary_u2 == [0.0]
        assert hemisphere_patch.boundary_length() == pytest.approx(2 * math.pi)

    def test_band_has_two_boundaries(self, sphere):
        band = PatchSpec(sphere, -0.5, 0.5)
        assert not band.is_cap
        assert len(band.boundary_u2) == 2

    def test_intrinsic_extrinsic_boundary_length(self, sphere):
        # circumference from the metric h(u2) against a dense chord sum
        patch = PatchSpec(sphere, -math.pi / 2, 0.4)
        n = 1 << 17
        (v,) = patch.boundary_u2
        pts = sphere.point(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False), v)
        chords = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        # correct the polyline's second-order chord deficit before comparing
        chord_factor = math.sin(math.pi / n) / (math.pi / n)
        intrinsic = patch.boundary_length() * chord_factor
        assert abs(float(np.sum(chords)) - intrinsic) < 1e-8

    def test_rejects_bad_interval(self, sphere):
        with pytest.raises(ValueError):
            PatchSpec(sphere, 0.5, 0.5)


class TestDiameterBound:
    def test_hemisphere_closed_forms(self, hemisphere_patch):
        rep = diameter_bound_audit(hemisphere_patch)
        A, W, L = 2 * math.pi, 2 * math.pi, 2 * math.pi
        rhs = 2 * A / (L + 2 * math.sqrt(W * A))
        assert rep.lhs == pytest.approx(2.0, abs=1e-6)
        assert rep.rhs == pytest.approx(rhs, abs=1e-6)
        assert rep.passed

    def test_tiny_cap_limit(self, sphere):
        rep = diameter_bound_audit(PatchSpec(sphere, 1.45, math.pi / 2))
        assert rep.lhs < 0.3
        assert rep.passed and rep.margin > 0

    def test_random_caps(self):
        surfaces = [unit_sphere(), spheroid_surface(4.038),
                    build_glued_family(GluedFamilyConfig(a=0.1))]
        for cap in random_caps(surfaces, 24, seed=7):
            assert diameter_bound_audit(cap).passed


class TestInteriorPoint:
    def test_hemisphere(self, hemisphere_patch):
        rep = interior_point_audit(hemisphere_patch, samples=2048)
        # the pole chord to the equator dominates: a sampled lower bound of
        # sqrt(2), approached from below
        assert rep.lhs <= math.sqrt(2.0) + 1e-12
        assert rep.lhs == pytest.approx(math.sqrt(2.0), abs=5e-3)
        assert rep.rhs < 0
        assert rep.passed

    def test_near_full_sphere(self, sphere):
        rep = interior_point_audit(PatchSpec(sphere, -math.pi / 2, 1.5))
        assert rep.lhs > 1.9
        assert rep.passed

    def test_band_rejected(self, sphere):
        with pytest.raises(ValueError):
            interior_point_audit(PatchSpec(sphere, -0.5, 0.5))


class TestMonotonicity:
    def test_hemisphere_pole_point(self, sphere):
        patch = PatchSpec(sphere, 0.0, math.pi / 2)
        rep = monotonicity_audit(patch, u2_0=math.pi / 2 - 1e-9)
        # boundary term: 2 pi / sqrt(2); lhs = 2 pi + 2 * that
        expect = 2 * math.pi + 2 * (2 * math.pi / math.sqrt(2.0))
        assert rep.lhs == pytest.approx(expect, rel=1e-6)
        assert rep.passed

    def test_marginal_tiny_cap_complement(self, sphere):
        # nearly the full sphere: W -> 4 pi and the boundary circle is tiny,
        # but it sits close to x0 choices near the rim; pick x0 far away
        patch = PatchSpec(sphere, -math.pi / 2, 1.52)
        rep = monotonicity_audit(patch, u2_0=-1.0)
        assert rep.passed

    def test_x0_near_boundary_blows_up(self, sphere):
        # the boundary integral grows like log(1/dist) as x0 approaches the
        # rim, so the bound passes with ever larger margin
        patch = PatchSpec(sphere, -math.pi / 2, 0.8)
        far = monotonicity_audit(patch, u2_0=0.5)
        near = monotonicity_audit(patch, u2_0=0.8 - 1e-3)
        nearer = monotonicity_audit(patch, u2_0=0.8 - 1e-6)
        assert far.passed and near.passed and nearer.passed
        assert nearer.lhs > near.lhs > far.lhs
        assert nearer.lhs > 4.0 * math.pi + 20.0

    def test_boundary_point_rejected(self, sphere):
        patch = PatchSpec(sphere, -math.pi / 2, 0.8)
        with pytest.raises(ValueError):
            monotonicity_audit(patch, u2_0=0.8)


class TestSeededSuite:
    def test_fifty_caps_pass_everything(self):
        surfaces = [unit_sphere(), spheroid_surface(4.038),
                    build_glued_family(GluedFamilyConfig(a=0.1))]
        rng = np.random.default_rng(42)
        for cap in random_caps(surfaces, 50, seed=42):
            assert diameter_bound_audit(cap).passed
            assert interior_point_audit(cap).passed
            lo, hi = cap.u2_lo, cap.u2_hi
            x0 = lo + (hi - lo) * (0.2 + 0.6 * float(rng.random()))
            assert monotonicity_audit(cap, x0).passed


class TestRatioTable:
    def test_round_sphere_entry(self):
        table = length_energy_ratio(
            [{"label": "sphere", "surface": unit_sphere(),
              "geodesic_length": 2 * math.pi}]
        )
        expect = 2 * math.pi / ((6 * math.pi - 4 * math.pi) * math.sqrt(4 * math.pi))
        assert table["rows"][0]["ratio"] == pytest.approx(expect, rel=1e-9)

    def test_vanishing_family(self):
        family = []
        for a in (0.2, 0.1, 0.05, 0.02):
            surf = build_glued_family(GluedFamilyConfig(a=a, cylinder_height="2a^2"))
            family.append({"label": f"a={a}", "surface": surf,
                           "geodesic_length": 2 * math.pi * a})
        table = length_energy_ratio(family)
        assert all(r["ratio"] > 0 for r in table["rows"])
        assert table["min_ratio"] > 0

    def test_vacuous_flagging(self):
        surf = spheroid_surface(4.038)  # W well above 6 pi
        table = length_energy_ratio(
            [{"label": "fat", "surface": surf, "geodesic_length": 1.0}]
        )
        assert table["rows"][0]["vacuous"]
        assert math.isnan(table["min_ratio"])


class TestInjectivity:
    def test_unit_sphere(self):
        rec = injectivity_bound_report(unit_sphere(), 2 * math.pi)
        assert rec["curvature_term"] == pytest.approx(math.pi, rel=1e-8)
        assert rec["willmore_term"]["symbolic_factor"] == "C(n)"

    def test_glued_small_neck(self):
        a = 0.05
        rec = injectivity_bound_report(
            build_glued_family(GluedFamilyConfig(a=a)), 2 * math.pi * a
        )
        # max K = 1/a^2 on the small hemisphere cap
        assert rec["max_gauss_curvature"] == pytest.approx(1 / a**2, rel=1e-6)
        assert rec["curvature_term"] == pytest.approx(math.pi * a, rel=1e-6)

    def test_nonpositive_curvature_gives_infinity(self):
        from georev.surfaces import ProfileCurve, RevolutionSurface, catenoid_profile

        cat = RevolutionSurface(ProfileCurve([catenoid_profile(0.5, -0.4, 0.4)]))
        rec = injectivity_bound_report(cat, 1.0)
        assert rec["curvature_term"] == math.inf
