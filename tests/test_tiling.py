import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from georev import tiling
from georev.geodesics import (
    clairaut_state,
    closure_check,
    detect_self_intersections,
    parallel_state,
    shoot,
)
from georev.surfaces import unit_sphere
from conftest import solved_case
from georev.tiling import (
    ResolutionError,
    complement_energy_audit,
    decompose_regions,
    export_region_table,
    mask_to_pgm,
    region_gauss_bonnet,
)

GRID = (1024, 512)  # unit tests run at half the production resolution
SUBPOINT_RTOL = 2e-4  # 1.04e-4 measured: tile 2 of the N = 3 case on (256, 128)


@pytest.fixture(scope="module")
def equator_split():
    s = unit_sphere()
    tr = shoot(s, parallel_state(s, 0.0), 7.0)
    closure_check(tr, 1e-8, t_candidate=2.0 * math.pi)
    detect_self_intersections(tr)
    return s, tr, decompose_regions(s, tr, grid=(512, 256))


@pytest.fixture(scope="module")
def n3_tiling(case_n3_e02):
    sol, surf, tr = case_n3_e02
    return sol, surf, tr, decompose_regions(surf, tr, grid=GRID)


class TestEquator:
    def test_two_hemispheres(self, equator_split):
        _, _, regions = equator_split
        assert len(regions) == 2
        for r in regions:
            assert r.area == pytest.approx(2.0 * math.pi, abs=1e-3)
            assert r.KdA == pytest.approx(2.0 * math.pi, abs=1e-3)
            assert r.corners == []
            assert r.N_i == 0

    def test_gauss_bonnet_no_corners(self, equator_split):
        _, _, regions = equator_split
        for r in regions:
            kda, asum, res, checks = region_gauss_bonnet(r)
            assert asum == 0.0
            assert res < 1e-3
            assert checks["residual_ok"]

    def test_complements_are_hemispheres(self, equator_split):
        _, _, regions = equator_split
        for rep in complement_energy_audit(regions, tol=1e-3):
            assert rep.passed
            assert rep.lhs == pytest.approx(2.0 * math.pi, abs=1e-6)


class TestLifetime:
    def test_decomposition_dies_with_its_regions(self):
        # no reference cycle: the grids are freed by reference counting alone
        s, tr = _equator()
        gc.disable()
        try:
            regions = decompose_regions(s, tr, grid=(64, 32))
            deco = weakref.ref(regions[0].decomposition)
            del regions
            assert deco() is None
        finally:
            gc.enable()


class TestSolvedCase:
    def test_region_count(self, n3_tiling):
        sol, _, _, regions = n3_tiling
        assert len(regions) == sol.N + 2

    def test_gauss_bonnet_per_region(self, n3_tiling):
        _, _, _, regions = n3_tiling
        deco = regions[0].decomposition
        for r in regions:
            kda, asum, res, checks = region_gauss_bonnet(r, xi=deco.xi)
            assert res < 1e-3
            assert kda < 2.0 * math.pi
            assert checks["angle_bound"]

    def test_exterior_angles_nonnegative(self, n3_tiling):
        _, _, _, regions = n3_tiling
        for r in regions:
            for c in r.corners:
                assert c.exterior >= -1e-6

    def test_sector_angles_sum_to_2pi(self, n3_tiling):
        sol, _, tr, regions = n3_tiling
        for ci, cr in enumerate(tr.crossings):
            sectors = [c for r in regions for c in r.corners
                       if c.crossing_id == ci]
            assert len(sectors) == 4
            assert sum(c.interior for c in sectors) == pytest.approx(
                2.0 * math.pi, abs=1e-6
            )
            # interior angles form the multiset {theta, pi-theta} twice over
            got = sorted(c.interior for c in sectors)
            want = sorted([cr.angle, cr.angle, math.pi - cr.angle,
                           math.pi - cr.angle])
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-6

    def test_partition_identities(self, n3_tiling):
        _, surf, _, regions = n3_tiling
        deco = regions[0].decomposition
        total_area = sum(r.area for r in regions)
        assert abs(total_area - deco.total_area) < 1e-3 * deco.total_area
        total_kda = sum(r.KdA for r in regions)
        assert abs(total_kda - 4.0 * math.pi) < 1e-2

    def test_handshake(self, n3_tiling):
        sol, _, _, regions = n3_tiling
        total = sum(r.boundary_length for r in regions)
        assert abs(total - 2.0 * sol.length) < 1e-3 * sol.length

    def test_boundary_segments(self, n3_tiling):
        _, _, _, regions = n3_tiling
        deco = regions[0].decomposition
        # each geodesic arc has a region on either side (label = id + 1)
        assert len(deco.arc_sides) == len(deco.arcs)
        assert all(left != 0 and right != 0 for left, right in deco.arc_sides)
        for r in regions:
            total = sum(length * sides.count(r.id + 1)
                        for sides, length in zip(deco.arc_sides, deco.arc_lengths))
            assert total > 0.0
            assert abs(total - r.boundary_length) < 1e-9

    def test_refinement_stability(self, case_n3_e02, n3_tiling):
        sol, surf, tr = case_n3_e02
        _, _, _, regions = n3_tiling
        finer = decompose_regions(surf, tr, grid=(2048, 1024))
        coarse = sorted(r.KdA for r in regions)
        fine = sorted(r.KdA for r in finer)
        assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-3

    def test_complement_energies(self, n3_tiling):
        _, _, _, regions = n3_tiling
        for rep in complement_energy_audit(regions, tol=1e-3):
            assert rep.passed, rep.name

    def test_region_willmore_sums_to_total(self, n3_tiling):
        _, _, _, regions = n3_tiling
        deco = regions[0].decomposition
        total = sum(r.willmore for r in regions)
        assert abs(total - deco.total_willmore) < 1e-3 * deco.total_willmore

    def test_xi_is_min_crossing_angle(self, n3_tiling):
        _, _, tr, regions = n3_tiling
        deco = regions[0].decomposition
        expect = min(min(c.angle, math.pi - c.angle) for c in tr.crossings)
        assert deco.xi == pytest.approx(expect, abs=0)

    @pytest.mark.parametrize("shift", [(1e-12, -1e-12), (-1e-12, 1e-12)])
    def test_vertex_samples_block_cells_the_curve_enters(self, case_n4_e02, shift):
        # the N = 4 geodesic meets u2 = 0 at the grid vertices u1 = 0 and pi
        # and does not cross itself there; moved off them by 1e-12 toward the
        # cells beside its path, the raster must still block the same cells
        _, surf, tr = case_n4_e02
        offset = np.array([shift[0], shift[1], 0.0, 0.0])

        def sol(t):
            y = tr.sol(t)
            return y + (offset if y.ndim == 1 else offset[:, None])

        regions = decompose_regions(surf, tr, grid=GRID)
        moved = decompose_regions(surf, dataclasses.replace(tr, sol=sol),
                                  grid=GRID)
        blocked = regions[0].decomposition.blocked
        assert np.array_equal(moved[0].decomposition.blocked, blocked)
        assert [int(r.mask.sum()) for r in moved] == [int(r.mask.sum()) for r in regions]


class TestErrors:
    def test_uncertified_trace_rejected(self):
        s = unit_sphere()
        tr = shoot(s, parallel_state(s, 0.0), 7.0)
        with pytest.raises(ValueError):
            decompose_regions(s, tr, grid=(128, 64))

    def test_resolution_error(self, case_n3_e02):
        sol, surf, tr = case_n3_e02
        # the thin lens regions disappear on a very coarse grid
        with pytest.raises(ResolutionError):
            decompose_regions(surf, tr, grid=(48, 24))


class TestExports:
    def test_region_table(self, tmp_path, equator_split):
        _, _, regions = equator_split
        path = tmp_path / "regions.csv"
        export_region_table(regions, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(regions)
        assert lines[0].startswith("id,area,KdA")

    def test_pgm_mask(self, equator_split):
        _, _, regions = equator_split
        text = mask_to_pgm(regions[0].mask)
        head = text.splitlines()
        assert head[0] == "P2"
        assert head[1] == "512 256"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (37, 53)])
    def test_pgm_equals_per_cell_text(self, shape, tmp_path):
        mask = np.random.default_rng(11).random(shape) < 0.5
        want = _reference_pgm(mask)
        assert mask_to_pgm(mask) == want
        mask_to_pgm(mask, tmp_path / "m.pgm")
        assert (tmp_path / "m.pgm").read_text() == want


def _reference_pgm(mask):
    """The per-cell text of mask_to_pgm, one conditional per cell."""
    ny, nx = mask.shape
    lines = ["P2", f"{nx} {ny}", "1"]
    for row in mask[::-1]:
        lines.append(" ".join("1" if v else "0" for v in row))
    return "\n".join(lines) + "\n"


# -- reference per-cell loops ---------------------------------------------------


def _reference_segment_arcs(ts, T, cuts):
    def arc_of_time(t):
        if not cuts:
            return 0
        tm = math.fmod(t - cuts[0], T)
        if tm < 0:
            tm += T
        i = np.searchsorted(np.array(cuts) - cuts[0], tm, side="right") - 1
        return int(min(max(i, 0), len(cuts) - 1))

    return np.array([arc_of_time(0.5 * (ts[i] + (ts[i + 1] if i + 1 < len(ts)
                     else T))) for i in range(len(ts))])


def _reference_green_split(blocked, points, seg_arc, arc_sides, frame, rule, sums):
    """The split of tiling._redistribute, one blocked cell at a time.

    Each segment is cut at every grid line it crosses.  A piece in a blocked
    cell adds -/+ the integral of Phi_r du1 to its left/right region, with
    Phi_r the antiderivative of the cubic through the row's node densities,
    integrated by a 5-point rule.  Each interval of a blocked cell's top
    edge between the trace's crossings of that line adds Phi_r(top) times
    its length to the side of the segment nearest its midpoint.
    """
    lo, du1, du2 = frame
    ny, nx = blocked.shape
    node, top = rule
    two_pi = 2.0 * math.pi
    z_nodes = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    g_x, g_w = np.polynomial.legendre.leggauss(5)
    points = points.tolist()

    def row_of(y):
        return min(max(math.floor((y - lo) / du2), 0), ny - 1)

    pieces = {}  # blocked cell -> [(segment, start, end)]
    edge_cuts = {}  # blocked cell -> u1 offsets in cells where the trace crosses its top
    cell_segs = {}  # cell -> segments with an end point in it
    for i in range(len(points) - 1):
        (x0, y0), (x1, y1) = points[i], points[i + 1]
        for x, y in ((x0, y0), (x1, y1)):
            cell_segs.setdefault((row_of(y), math.floor(x / du1) % nx), []).append(i)
        cx0, cx1 = math.floor(x0 / du1), math.floor(x1 / du1)
        cy0, cy1 = row_of(y0), row_of(y1)
        params = [0.0, 1.0]
        for k in range(min(cx0, cx1) + 1, max(cx0, cx1) + 1):
            params.append(min(max((k * du1 - x0) / (x1 - x0), 0.0), 1.0))
        for j in range(min(cy0, cy1) + 1, max(cy0, cy1) + 1):
            a = min(max((lo + j * du2 - y0) / (y1 - y0), 0.0), 1.0)
            params.append(a)
            xc = x0 + a * (x1 - x0)
            cell = (j - 1, math.floor(xc / du1) % nx)
            if blocked[cell]:
                edge_cuts.setdefault(cell, []).append(xc / du1 - math.floor(xc / du1))
        params.sort()
        for sa, sb in zip(params, params[1:]):
            if sb <= sa:
                continue
            sm = 0.5 * (sa + sb)
            cell = (row_of(y0 + sm * (y1 - y0)), math.floor((x0 + sm * (x1 - x0)) / du1) % nx)
            if blocked[cell]:
                pieces.setdefault(cell, []).append((i, sa, sb))

    # Phi_r / du2 per row and density: Horner coefficients, highest first
    phi_rows = [[np.polynomial.Polynomial.fit(z_nodes, node[q, r], 3).convert().integ()
                 .coef.tolist()[::-1] for q in range(3)] for r in range(ny)]
    for cy, cx in zip(*np.nonzero(blocked)):
        cell = (int(cy), int(cx))
        phis = phi_rows[cy]
        for i, sa, sb in pieces.get(cell, ()):
            (x0, y0), (x1, y1) = points[i], points[i + 1]
            left, right = arc_sides[seg_arc[i]]
            for q in range(3):
                flux = 0.0
                for g, w in zip(g_x, g_w):
                    s = sa + (sb - sa) * 0.5 * (g + 1.0)
                    z = (y0 + s * (y1 - y0) - lo) / du2 - cy
                    phi = 0.0
                    for c in phis[q]:
                        phi = phi * z + c
                    flux += 0.5 * w * phi
                flux *= (sb - sa) * (x1 - x0) * du2
                sums[q][left] -= flux
                sums[q][right] += flux
        cand = sorted({i for dy in (-1, 0, 1) if 0 <= cy + dy < ny
                       for dx in (-1, 0, 1)
                       for i in cell_segs.get((cy + dy, (cx + dx) % nx), ())})
        ends = sorted([0.0, 1.0, *edge_cuts.get(cell, ())])
        for a, b in zip(ends, ends[1:]):
            if b <= a:
                continue
            qx, qy = (cx + 0.5 * (a + b)) * du1, lo + (cy + 1) * du2
            best = None
            for i in cand:
                (x0, y0), (x1, y1) = points[i], points[i + 1]
                ex, ey = x1 - x0, y1 - y0
                fx = qx + two_pi * round((0.5 * (x0 + x1) - qx) / two_pi) - x0
                fy = qy - y0
                t = min(max((fx * ex + fy * ey) / (ex * ex + ey * ey), 0.0), 1.0)
                dist = ((fx - t * ex) / du1) ** 2 + ((fy - t * ey) / du2) ** 2
                if best is None or dist < best[0]:
                    best = (dist, ex * fy - ey * fx > 0.0, i)
            lab = arc_sides[seg_arc[best[2]]][0 if best[1] else 1]
            for q in range(3):
                sums[q][lab] += top[q, cy] * (b - a) * du1


def _reference_redistribute(surface, blocked, seg_p0, seg_p1, seg_keys, seg_arc,
                            arc_sides, frame, sub, sums):
    """One blocked cell at a time: candidates from a dict, then nearest segment."""
    lo, du1, du2 = frame
    ny, nx = blocked.shape
    area, kda, wil = sums
    m = area.shape[0] - 1
    cell_segs = {}
    for keys in seg_keys:
        for i, key in enumerate(keys):
            cell_segs.setdefault(divmod(int(key), nx), []).append(i)
    offs = (np.arange(sub) + 0.5) / sub
    oy, ox = np.meshgrid(offs, offs, indexing="ij")
    ox = ox.ravel()
    oy = oy.ravel()
    two_pi = 2.0 * math.pi
    by, bx = np.nonzero(blocked)
    for cy, cx in zip(by, bx):
        cand = []
        for dy in (-1, 0, 1):
            yy = cy + dy
            if yy < 0 or yy >= ny:
                continue
            for dx in (-1, 0, 1):
                cand.extend(cell_segs.get((yy, (cx + dx) % nx), ()))
        if not cand:
            continue
        cand = np.unique(np.asarray(cand, dtype=np.int64))
        pu1 = (cx + ox) * du1
        pu2 = lo + (cy + oy) * du2
        p0 = seg_p0[cand]
        p1 = seg_p1[cand]
        mid = 0.5 * (p0[:, 0] + p1[:, 0])
        kshift = np.round((mid[None, :] - pu1[:, None]) / two_pi)
        qx = pu1[:, None] + two_pi * kshift
        qy = np.broadcast_to(pu2[:, None], qx.shape)
        ex = (p1[:, 0] - p0[:, 0])[None, :]
        ey = (p1[:, 1] - p0[:, 1])[None, :]
        fx = qx - p0[None, :, 0]
        fy = qy - p0[None, :, 1]
        ee = ex * ex + ey * ey
        tpar = np.clip((fx * ex + fy * ey) / ee, 0.0, 1.0)
        dx = fx - tpar * ex
        dy_ = fy - tpar * ey
        d2 = (dx / du1) ** 2 + (dy_ / du2) ** 2
        nearest = np.argmin(d2, axis=1)
        rows = np.arange(pu1.shape[0])
        cross = ex[0, nearest] * fy[rows, nearest] - ey[0, nearest] * fx[rows, nearest]
        arcs_near = seg_arc[cand[nearest]]
        lab_sub = np.where(
            cross > 0.0,
            np.array([arc_sides[a][0] for a in arcs_near]),
            np.array([arc_sides[a][1] for a in arcs_near]),
        )
        Ksub, H2sub, hh, gg = surface.curvature_grids(pu2)
        wsub = hh * gg * (du1 * du2 / (sub * sub))
        area += np.bincount(lab_sub, weights=wsub, minlength=m + 1)
        kda += np.bincount(lab_sub, weights=Ksub * wsub, minlength=m + 1)
        wil += np.bincount(lab_sub, weights=0.25 * H2sub * wsub, minlength=m + 1)


def _subpoint_route(surface, sub):
    """tiling._redistribute's signature over the supersampled nearest-segment
    rule: every one of a blocked cell's sub x sub subpoints goes to the side
    of its nearest candidate segment."""

    def redistribute(blocked, points, seg_arc, arc_sides, frame, rule, sums):
        lo, du1, du2 = frame
        ny, nx = blocked.shape
        rows = np.clip(np.floor((points[:, 1] - lo) / du2), 0, ny - 1)
        keys = (rows * nx + np.floor(np.mod(points[:, 0], 2.0 * math.pi) / du1) % nx
                ).astype(np.int64)
        _reference_redistribute(surface, blocked, points[:-1], points[1:],
                                (keys[:-1], keys[1:]), seg_arc, arc_sides, frame,
                                sub, sums)

    return redistribute


def _near_polar_great_circle():
    s = unit_sphere()
    tr = shoot(s, clairaut_state(s, 0.01), 7.0)
    closure_check(tr, 1e-8, t_candidate=2.0 * math.pi)
    detect_self_intersections(tr)
    return s, tr


def _equator():
    s = unit_sphere()
    tr = shoot(s, parallel_state(s, 0.0), 7.0)
    closure_check(tr, 1e-8, t_candidate=2.0 * math.pi)
    detect_self_intersections(tr)
    return s, tr


def _latitude(phi0):
    """The equator trace moved to the latitude circle u2 = phi0 (u1 = t)."""
    s, tr = _equator()

    def sol(t):
        t = np.asarray(t, dtype=float)
        return np.array([t, np.full_like(t, phi0), np.ones_like(t),
                         np.zeros_like(t)])

    return s, dataclasses.replace(tr, sol=sol)


def _totals(regions):
    return np.array([[r.area, r.KdA, r.willmore] for r in regions])


class TestExactTiles:
    """Tiles whose integrals are known in closed form."""

    @pytest.mark.parametrize("grid", [(2048, 1024), (512, 256)])
    @pytest.mark.parametrize("phi0", [0.3, 0.301, -0.9, 1.2, 0.0])
    def test_latitude_caps(self, phi0, grid):
        # north of the circle is left of it; K = 1, so KdA equals the area
        surf, tr = _latitude(phi0)
        north, south = decompose_regions(surf, tr, grid=grid)
        if north.mask[-1].sum() == 0:
            north, south = south, north
        for region, want in ((north, 1.0 - math.sin(phi0)),
                             (south, 1.0 + math.sin(phi0))):
            assert region.area == pytest.approx(2.0 * math.pi * want, abs=1e-9)
            assert region.KdA == pytest.approx(2.0 * math.pi * want, abs=1e-9)

    def test_near_polar_great_circle_halves(self):
        surf, tr = _near_polar_great_circle()
        for region in decompose_regions(surf, tr, grid=(2048, 1024)):
            assert region.area == pytest.approx(2.0 * math.pi, abs=1e-9)
            assert region.KdA == pytest.approx(2.0 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("case", [(3, 0.2), (4, 0.2)])
    def test_partition_equals_row_rule(self, case):
        _, surf, tr = solved_case(*case)
        regions = decompose_regions(surf, tr)
        nx, ny = tiling.DEFAULT_GRID
        lo, hi = surf.u2_range
        gl_x, gl_w = np.polynomial.legendre.leggauss(4)
        du2 = (hi - lo) / ny
        K, H2, h, gam = surf.curvature_grids(
            lo + (np.arange(ny)[:, None] + 0.5 * (gl_x + 1.0)).ravel() * du2)
        dens = h * gam * np.tile(gl_w, ny) * (0.5 * du2 * 2.0 * math.pi)
        want = [dens.sum(), (K * dens).sum(), (0.25 * H2 * dens).sum()]
        got = _totals(regions).sum(axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


class TestReferenceLoop:
    """The array split equals the per-cell loop of the same rule."""

    GRID = (256, 128)

    @pytest.fixture(params=["equator", "n3", "near-polar"])
    def surface_trace(self, request, case_n3_e02):
        if request.param == "n3":
            return case_n3_e02[1], case_n3_e02[2]
        return _equator() if request.param == "equator" else _near_polar_great_circle()

    def test_equals_reference_loop(self, surface_trace, monkeypatch):
        surf, tr = surface_trace
        got = decompose_regions(surf, tr, grid=self.GRID)
        monkeypatch.setattr(tiling, "_segment_arcs", _reference_segment_arcs)
        monkeypatch.setattr(tiling, "_redistribute", _reference_green_split)
        want = decompose_regions(surf, tr, grid=self.GRID)
        assert len(got) == len(want) == len(tr.crossings) + 2
        assert [g.cell_count for g in got] == [w.cell_count for w in want]
        np.testing.assert_allclose(_totals(got), _totals(want), rtol=1e-12, atol=0.0)

    def test_subpoint_route_agrees(self, case_n3_e02, monkeypatch):
        # the supersampled route puts the trace on a grid of sub x sub
        # subpoints per cell, so it errs by O(1/sub) of a cell along the trace
        surf, tr = case_n3_e02[1], case_n3_e02[2]
        got = decompose_regions(surf, tr, grid=self.GRID)
        monkeypatch.setattr(tiling, "_redistribute", _subpoint_route(surf, 16))
        want = decompose_regions(surf, tr, grid=self.GRID)
        np.testing.assert_allclose(_totals(got), _totals(want), rtol=SUBPOINT_RTOL)

    def test_chunk_size_does_not_change_sums(self, case_n3_e02, monkeypatch):
        # small chunks count the interior cells in bands of 3 rows
        surf, tr = case_n3_e02[1], case_n3_e02[2]
        want = decompose_regions(surf, tr, grid=self.GRID)
        monkeypatch.setattr(tiling, "_CHUNK", 1000)
        got = decompose_regions(surf, tr, grid=self.GRID)
        for g, w in zip(got, want):
            assert (g.area, g.KdA, g.willmore, g.cell_count) == (
                w.area, w.KdA, w.willmore, w.cell_count)

    def test_near_polar_case_touches_seam_and_pole_rows(self):
        surf, tr = _near_polar_great_circle()
        assert not tr.crossings
        blocked = decompose_regions(surf, tr,
                                    grid=self.GRID)[0].decomposition.blocked
        assert blocked[0].any() and blocked[-1].any()
        assert blocked[:, 0].any() and blocked[:, -1].any()

    def test_candidates_equal_reference(self):
        # a small grid with end points in the first and last rows and on
        # both sides of the seam; many segments share cells
        rng = np.random.default_rng(5)
        ny, nx = 8, 16
        seg_keys = (rng.integers(0, ny * nx, 300), rng.integers(0, ny * nx, 300))
        blocked = np.zeros((ny, nx), dtype=bool)
        for keys in seg_keys:
            blocked.flat[keys] = True
        cell_segs = {}
        for keys in seg_keys:
            for i, key in enumerate(keys):
                cell_segs.setdefault(divmod(int(key), nx), []).append(i)
        by, bx, cell, seg = tiling._cell_candidates(blocked, seg_keys)
        np.testing.assert_array_equal(np.stack([by, bx]), np.nonzero(blocked))
        for k, (cy, cx) in enumerate(zip(by, bx)):
            cand = [i for dy in (-1, 0, 1) if 0 <= cy + dy < ny
                    for dx in (-1, 0, 1)
                    for i in cell_segs.get((cy + dy, (cx + dx) % nx), ())]
            np.testing.assert_array_equal(np.sort(seg[cell == k]), np.sort(cand))

    def test_segment_arcs_equal_reference(self, case_n3_e02):
        tr = case_n3_e02[2]
        T = tr.closure.period
        cuts = sorted({float(c.t) for c in tr.crossings}
                      | {float(c.s) for c in tr.crossings})
        ts = np.linspace(0.0, T, 4096, endpoint=False)
        for c in (cuts, []):
            np.testing.assert_array_equal(tiling._segment_arcs(ts, T, c),
                                          _reference_segment_arcs(ts, T, c))


def _reference_label_with_seam(blocked):
    """Seam merge by union-find over the seam pairs, ids in first-label order."""
    from scipy import ndimage

    labels, n = ndimage.label(~blocked, structure=tiling._FOUR_CONN)
    parent = list(range(n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(labels[:, 0], labels[:, -1]):
        if a > 0 and b > 0:
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[rb] = ra
    remap = {}
    lut = np.zeros(n + 1, dtype=labels.dtype)
    for lab in range(1, n + 1):
        lut[lab] = remap.setdefault(find(lab), len(remap) + 1)
    return lut[labels], len(remap)


class TestSeamLabels:
    """The seam merge numbers regions as the union-find it replaced did."""

    def _grids(self):
        rng = np.random.default_rng(11)
        for _ in range(240):
            ny, nx = (int(v) for v in rng.integers(1, 40, size=2))
            yield rng.random((ny, nx)) < rng.choice([0.1, 0.3, 0.45, 0.6, 0.8])
        for shape in [(1, 1), (1, 30), (30, 1), (17, 23)]:
            yield np.zeros(shape, dtype=bool)
            yield np.ones(shape, dtype=bool)
        for ny in (1, 9, 40):
            yield rng.random((ny, 1)) < 0.5
            yield rng.random((1, ny)) < 0.5

    def test_equals_union_find(self):
        for blocked in self._grids():
            got, m = tiling._label_with_seam(blocked)
            want, n = _reference_label_with_seam(blocked)
            assert m == n
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
