import math

import numpy as np
import pytest

from georev.glued import (
    ConstructionError,
    GluedFamilyConfig,
    LITERAL_HEIGHT_NOTE,
    build_glued_family,
    cylinder_family_closed_forms,
    parse_height_rule,
    spheroid_band_cap_closed_forms,
    _solve_sphere_catenoid_tangency,
)
from georev.spheroid import solve_for_geodesic
from georev.surfaces import spheroid_profile


class TestHeightRule:
    def test_parsing(self):
        assert parse_height_rule("2a") == (2.0, 1.0)
        assert parse_height_rule("2a^2") == (2.0, 2.0)
        assert parse_height_rule("2a2") == (2.0, 2.0)
        assert parse_height_rule("1.5a^1.5") == (1.5, 1.5)
        with pytest.raises(ValueError):
            parse_height_rule("nonsense")


class TestCylinderFamily:
    def test_joins_are_c1(self):
        surf = build_glued_family(GluedFamilyConfig(a=0.1))
        assert max(surf.profile.join_residuals()) < 1e-10
        assert surf.is_closed
        assert surf.joins["tangency_residual"] < 1e-10

    def test_tangency_closed_form(self):
        # the tangency system reduces to cos(phi)^2 = a
        for a in (0.2, 0.05, 0.01):
            surf = build_glued_family(GluedFamilyConfig(a=a))
            assert abs(math.cos(surf.joins["phi_cut"]) ** 2 - a) < 1e-12
            assert abs(surf.joins["s_a"] - (1.0 - math.sqrt(1.0 - a))) < 1e-12

    def test_tangency_residual_across_a(self):
        sweep = np.concatenate([np.geomspace(1e-12, 1.0 - 1e-9, 500),
                                np.linspace(1e-3, 0.999, 500)])
        for a in sweep:
            phi, tau, res = _solve_sphere_catenoid_tangency(float(a))
            assert res < 1e-10
            assert abs(math.cos(phi) ** 2 - a) < 1e-12

    def test_tangency_certificate_accepts_tiny_a(self):
        # (sinh(tau) cos(phi) - sin(phi)) / cosh(tau) stays well conditioned
        # where tan(phi) would amplify the rounding of phi ~ pi/2 by 1/a
        for a in (1e-7, 1e-9, 1e-12):
            _, _, res = _solve_sphere_catenoid_tangency(a)
            assert res < 1e-10

    def test_quadrature_matches_closed_forms(self):
        for a, rule in ((0.1, "2a"), (0.05, "2a^2")):
            cfg = GluedFamilyConfig(a=a, cylinder_height=rule)
            surf = build_glued_family(cfg)
            closed = cylinder_family_closed_forms(cfg)
            pieces = {label: (pa, pw) for label, pa, pw in surf.piece_energies()}
            for label, (Ac, Wc) in closed.items():
                if label == "total":
                    continue
                assert pieces[label][0] == pytest.approx(Ac, abs=1e-8)
                assert pieces[label][1] == pytest.approx(Wc, abs=1e-8)

    def test_literal_height_limit_is_7pi(self):
        vals = []
        for a in (0.2, 0.1, 0.05, 0.02):
            cfg = GluedFamilyConfig(a=a, cylinder_height="2a")
            _, W = build_glued_family(cfg).area_and_willmore()
            vals.append(W)
        gaps = [abs(v - 7.0 * math.pi) for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        surf = build_glued_family(GluedFamilyConfig(a=0.005, cylinder_height="2a"))
        _, W = surf.area_and_willmore()
        assert abs(W - 7.0 * math.pi) < 0.05
        assert LITERAL_HEIGHT_NOTE in surf.notes

    def test_vanishing_height_limit_is_6pi(self):
        gaps = []
        for a in (0.2, 0.1, 0.05, 0.02):
            cfg = GluedFamilyConfig(a=a, cylinder_height="2a^2")
            surf = build_glued_family(cfg)
            _, W = surf.area_and_willmore()
            gaps.append(abs(W - 6.0 * math.pi))
            assert surf.parallel_length(surf.neck_u2) == pytest.approx(
                2.0 * math.pi * a, abs=1e-12
            )
            assert not surf.notes
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_area_tends_to_unit_sphere_area(self):
        areas = [
            build_glued_family(GluedFamilyConfig(a=a)).area_and_willmore()[0]
            for a in (0.1, 0.02, 0.005)
        ]
        assert abs(areas[-1] - 4.0 * math.pi) < 0.05

    def test_gauss_bonnet(self):
        surf = build_glued_family(GluedFamilyConfig(a=0.1))
        assert abs(surf.gauss_curvature_integral() - 4.0 * math.pi) < 1e-6

    def test_curvature_bounded_per_piece(self):
        surf = build_glued_family(GluedFamilyConfig(a=0.1))
        for seg in surf.profile.segments:
            ts = np.linspace(seg.t_lo + 1e-9, seg.t_hi - 1e-9, 200)
            K, H2, _, _ = surf.curvature_grids(ts)
            assert np.all(np.isfinite(K))
            assert np.all(np.isfinite(H2))

    def test_invalid_scale(self):
        with pytest.raises(ConstructionError):
            build_glued_family(GluedFamilyConfig(a=1.5))


@pytest.fixture(scope="module")
def band():
    sol, _, _ = solve_for_geodesic(3, 0.0045)
    cfg = GluedFamilyConfig(a=0.005, neck_kind="spheroid-band", b=sol.b)
    return cfg, build_glued_family(cfg), sol


class TestSpheroidBandFamily:
    def test_energy_below_threshold(self, band):
        cfg, surf, _ = band
        _, W = surf.area_and_willmore()
        assert W < 4.0 * math.pi + 0.1

    def test_caps_match_closed_forms(self, band):
        cfg, surf, _ = band
        closed = spheroid_band_cap_closed_forms(cfg)
        pieces = {label: (pa, pw) for label, pa, pw in surf.piece_energies()}
        for label in ("cap-top", "cap-bottom"):
            assert pieces[label][0] == pytest.approx(closed["cap"][0], abs=1e-10)
            assert pieces[label][1] == pytest.approx(closed["cap"][1], abs=1e-10)

    def test_neck_metric_bit_identical(self, band):
        cfg, surf, sol = band
        neck = surf.profile.segments[1]
        bare = spheroid_profile(sol.b, scale=cfg.a, t_lo=-cfg.a, t_hi=cfg.a)
        ts = np.linspace(-cfg.a * 0.99, cfg.a * 0.99, 31)
        shift = neck.t_lo + cfg.a
        for k, (ours, ref) in enumerate(zip(neck.jet(ts + shift), bare.jet(ts))):
            if k != 1:  # every component but g, which the metric does not use
                assert np.all(ours == ref), k

    def test_requires_b(self):
        with pytest.raises(ValueError):
            GluedFamilyConfig(a=0.01, neck_kind="spheroid-band")
