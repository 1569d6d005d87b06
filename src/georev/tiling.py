"""Tiling of a closed revolution surface by a closed geodesic.

The geodesic trace is rasterized onto a grid over the (u1 mod 2 pi, u2)
parameter rectangle (seam-aware, poles as ordinary rows); the complement is
labeled by 4-connected flood fill, which is leak-free because consecutive
blocked cells are 8-neighbors.  Each sample is binned a millionth of a step
inside the steps on either side of it, so a sample on a grid vertex, where
the exact geodesic may pass, blocks only cells the curve enters whichever
way rounding moves it.  Corner angles at the self-intersections go to the
regions of the four sectors there: each sector takes its region from the
two arcs that bound it, whose left and right regions are probed at the arc
midpoints, and the two arcs must agree.

Every integrand depends on u2 alone.  Free cells take their row's
4-point Gauss-Legendre weight.  Blocked cells are split exactly by Green's
theorem on the same row rule: with Phi_r(u2) the integral, from the row's
bottom edge, of the cubic through the row's node densities, a region's part
of a cell is minus the integral of Phi_r du1 around it.  Bottom edges add
nothing (Phi_r = 0) and vertical edges add nothing (du1 = 0).  The trace is
a closed polyline, the raster samples plus the crossing passages, so each
segment lies on one arc; each segment is cut where it crosses a grid line
(at most one of each kind, as a step is under 0.75 cell), and a piece in a
blocked cell adds -/+ its integral of Phi_r du1, exact by 3 Gauss points,
to its arc's left/right region.  A blocked cell's top edge is cut where the
trace crosses that line, and each interval adds Phi_r(top) times its length
to the side of the segment nearest its midpoint, among the segments with an
end point in the cell's 3x3 block.

For a region D with exterior angles alpha at its corners the audit
quantifies the defect identity: integral of K over D equals 2 pi minus the
sum of the alphas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .audits import AuditReport
from .report import write_csv

__all__ = [
    "Region",
    "CornerAngle",
    "RegionDecomposition",
    "ResolutionError",
    "GeometryError",
    "decompose_regions",
    "region_gauss_bonnet",
    "complement_energy_audit",
    "export_region_table",
    "mask_to_pgm",
]

DEFAULT_GRID = (2048, 1024)
ANGLE_TOL = 1e-6
_CHUNK = 1 << 15  # elements per chunk of array work; bounds the temporaries
_N_RASTER = 32768  # trace samples, raised when a step spans most of a cell
_NUDGE = 1e-6  # fraction of a step by which its ends are binned inside it
_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


class ResolutionError(RuntimeError):
    """A region fell below the grid resolution; retry with a finer grid."""


class GeometryError(RuntimeError):
    """Sector membership or region topology could not be resolved."""


@dataclass(frozen=True)
class CornerAngle:
    crossing_id: int
    region_id: int
    interior: float
    exterior: float


@dataclass
class Region:
    id: int
    area: float
    KdA: float
    willmore: float
    corners: list
    N_i: int
    boundary_length: float
    cell_count: int
    decomposition: object = field(repr=False, default=None)

    @property
    def mask(self):
        return self.decomposition.labels == self.id + 1

    def exterior_angle_sum(self):
        return sum(c.exterior for c in self.corners)


@dataclass
class RegionDecomposition:
    surface: object
    trace: object
    grid: tuple
    labels: np.ndarray
    blocked: np.ndarray
    xi: float
    total_area: float
    total_willmore: float
    arcs: list
    arc_lengths: list
    arc_sides: list


def _label_with_seam(blocked):
    """Label the 4-connected free cells, merging regions across the u1 seam.

    The two seam columns join each (left, right) pair of free labels in one
    sparse graph over the labels, background node 0 included.
    ``connected_components`` numbers components in order of their smallest
    node, so the background stays 0 and regions keep the order of their first
    ``ndimage.label`` label.  Returns the labels and the region count.
    """
    labels, n = ndimage.label(~blocked, structure=_FOUR_CONN)
    left, right = labels[:, 0], labels[:, -1]
    pair = (left > 0) & (right > 0)
    graph = coo_matrix((np.ones(int(pair.sum())), (left[pair], right[pair])),
                       shape=(n + 1, n + 1))
    m, lut = connected_components(graph, directed=False)
    return lut.astype(labels.dtype)[labels], m - 1


def decompose_regions(surface, trace, grid=DEFAULT_GRID):
    """Cut the surface along the closed trace; one Region per component.

    Requires a closure-certified trace with crossings already extracted.
    The region count must come out as (number of crossings) + 2.
    """
    if trace.closure is None:
        raise ValueError("trace must be closure-certified before tiling")
    T = trace.closure.period
    crossings = list(trace.crossings)
    nx, ny = grid
    lo, hi = surface.u2_range
    du1 = 2.0 * math.pi / nx
    du2 = (hi - lo) / ny

    # --- sample and rasterize the trace ------------------------------------
    def sample(n):
        ts = np.linspace(0.0, T, n, endpoint=False)
        return ts, trace.eval(ts)[:2], trace.eval(np.concatenate([ts[1:], [T]]))[:2]

    ts, (u1s, u2s), (u1e, u2e) = sample(_N_RASTER)
    max_step = max(
        float(np.max(np.abs(u1e - u1s))), float(np.max(np.abs(u2e - u2s)))
    )
    if max_step > 0.75 * min(du1, du2):
        ts, (u1s, u2s), (u1e, u2e) = sample(
            int(_N_RASTER * max_step / (0.5 * min(du1, du2))))

    # each step's ends are binned a hair inside the step (module docstring)
    nu1, nu2 = _NUDGE * (u1e - u1s), _NUDGE * (u2e - u2s)

    def cells(u1, u2):
        return (np.clip(np.floor((u2 - lo) / du2).astype(np.int64), 0, ny - 1),
                np.floor(np.mod(u1, 2.0 * math.pi) / du1).astype(np.int64) % nx)

    iy, ix = cells(u1s + nu1, u2s + nu2)
    iy_e, ix_e = cells(u1e - nu1, u2e - nu2)
    blocked = np.zeros((ny, nx), dtype=bool)
    blocked[iy, ix] = True
    blocked[iy_e, ix_e] = True

    labels, m = _label_with_seam(blocked)
    expected = len(crossings) + 2
    if m < expected:
        raise ResolutionError(
            f"found {m} regions, expected {expected}; a region is thinner than "
            f"the grid, retry with a finer grid than {grid}"
        )
    if m > expected:
        counts = np.bincount(labels.ravel())
        tiny = int(np.sum(counts[1:] < 10))
        if tiny:
            raise ResolutionError(
                f"{tiny} regions hold fewer than 10 cells on grid {grid}"
            )
        raise GeometryError(f"found {m} regions, expected {expected}")

    # --- row rule and interior sums -----------------------------------------
    # all integrands are u1-independent, so a per-row Gauss-Legendre rule in
    # u2 makes the interior sums exact up to the blocked boundary strip
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    rows = lo + (np.arange(ny)[:, None] + 0.5 * (gl_x[None, :] + 1.0)) * du2
    K_n, H2_n, h_n, gam_n = surface.curvature_grids(rows.ravel())
    dens = (h_n * gam_n).reshape(ny, 4)
    node = np.stack([dens, K_n.reshape(ny, 4) * dens, 0.25 * H2_n.reshape(ny, 4) * dens])
    top = (node @ gl_w) * (0.5 * du2)
    # cells per (row, label), counted a band of rows at a time
    count = np.zeros((ny, m + 1), dtype=np.int64)
    band = max(1, _CHUNK // nx)
    for r0 in range(0, ny, band):
        lab = labels[r0:r0 + band]
        count[r0:r0 + band] = np.bincount(
            (lab + (m + 1) * np.arange(lab.shape[0])[:, None]).ravel(),
            minlength=lab.size // nx * (m + 1)).reshape(-1, m + 1)
    sums = (top * du1) @ count
    cells = count.sum(axis=0)

    # --- arcs between crossing passages -------------------------------------
    cuts = sorted({float(c.t) for c in crossings} | {float(c.s) for c in crossings})
    if cuts:
        arcs = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        arcs.append((cuts[-1], cuts[0] + T))
    else:
        arcs = [(0.0, T)]
    arc_lengths = [b - a for a, b in arcs]

    def label_at_chart(u1, u2):
        cx = int(np.floor(np.mod(u1, 2.0 * math.pi) / du1)) % nx
        cy = int(np.clip(np.floor((u2 - lo) / du2), 0, ny - 1))
        return int(labels[cy, cx])

    def probe_label(u1, u2, direction, radii=(2, 3, 4, 6, 8, 12, 16, 24, 32)):
        dnorm = math.hypot(direction[0] / du1, direction[1] / du2)
        if dnorm == 0.0:
            return 0
        step = (direction[0] / dnorm / du1, direction[1] / dnorm / du2)
        for r in radii:
            lab = label_at_chart(u1 + r * step[0] * du1, u2 + r * step[1] * du2)
            if lab > 0:
                return lab
        return 0

    # left/right region of each arc (probing at the arc's time midpoint)
    arc_sides = []
    for (a, b) in arcs:
        tm = 0.5 * (a + b)
        y = trace.eval(tm)
        v = (float(y[2]), float(y[3]))
        nvec = (-v[1], v[0])
        lab_left = probe_label(float(y[0]), float(y[1]), nvec)
        lab_right = probe_label(float(y[0]), float(y[1]), (-nvec[0], -nvec[1]))
        if lab_left == 0 or lab_right == 0:
            raise GeometryError(f"cannot resolve the sides of arc ({a:.4f},{b:.4f})")
        arc_sides.append((lab_left, lab_right))

    # --- split the blocked cells by Green's theorem on the row rule ----------
    # the raster samples plus each crossing passage not within a millionth of
    # a step of a sample, so that every segment lies on one arc; the polyline
    # closes on the first sample, lifted by whole turns
    cut_t = np.array(cuts)
    off = np.abs(cut_t / (T / ts.size) - np.round(cut_t / (T / ts.size))) > _NUDGE
    at = np.searchsorted(ts, cut_t[off])
    u1c, u2c = trace.eval(cut_t[off])[:2] if off.any() else (cut_t[off],) * 2
    wind = round(float(u1e[-1] - u1s[0]) / (2.0 * math.pi))
    points = np.stack([np.append(np.insert(u1s, at, u1c), u1s[0] + 2.0 * math.pi * wind),
                       np.append(np.insert(u2s, at, u2c), u2s[0])], axis=1)
    _redistribute(
        blocked, points, _segment_arcs(np.insert(ts, at, cut_t[off]), T, cuts),
        arc_sides, (lo, du1, du2), (node, top), sums,
    )

    # --- corner angles from the arc adjacency structure ----------------------
    # Each crossing carries four rays (the two passage tangents and their
    # reverses).  Every sector between angularly consecutive rays inherits its
    # region from the left/right labels of the two arcs bounding it, probed
    # robustly at the arc midpoints; the two bounding arcs must agree.
    def _cyc_close(x, y):
        d = math.fmod(abs(x - y), T)
        return min(d, T - d) < 1e-7 * T

    def arc_starting_at(tc):
        for k, (a, _) in enumerate(arcs):
            if _cyc_close(a, tc):
                return k
        raise GeometryError(f"no arc starts at cut time {tc}")

    def arc_ending_at(tc):
        for k, (_, b) in enumerate(arcs):
            if _cyc_close(b, tc):
                return k
        raise GeometryError(f"no arc ends at cut time {tc}")

    corners_by_region = {i: [] for i in range(1, m + 1)}
    crossing_regions = {i: set() for i in range(len(crossings))}
    for ci, cr in enumerate(crossings):
        E_c, _, G_c = surface.metric_at(cr.u2)
        rays = []
        for tc in (cr.t, cr.s):
            y = trace.eval(tc)
            v = np.array([float(y[2]), float(y[3])])
            rays.append((v, "out", arc_starting_at(tc)))
            rays.append((-v, "in", arc_ending_at(tc)))
        rays.sort(key=lambda rr: math.atan2(rr[0][1], rr[0][0]))
        for k in range(4):
            d_lo, kind_lo, arc_lo = rays[k]
            d_hi, kind_hi, arc_hi = rays[(k + 1) % 4]
            # ccw-adjacent sector of an outgoing ray is left of its arc; of a
            # reversed incoming ray it is right of its arc (and vice versa
            # for the cw-adjacent sector of the upper bounding ray)
            lab_lo = (arc_sides[arc_lo][0] if kind_lo == "out"
                      else arc_sides[arc_lo][1])
            lab_hi = (arc_sides[arc_hi][1] if kind_hi == "out"
                      else arc_sides[arc_hi][0])
            if lab_lo != lab_hi:
                raise GeometryError(
                    f"inconsistent sector membership at crossing {ci} "
                    f"(labels {lab_lo} vs {lab_hi}); crossing multiplicity > 2?"
                )
            dot = E_c * d_lo[0] * d_hi[0] + G_c * d_lo[1] * d_hi[1]
            n_lo = math.sqrt(E_c * d_lo[0] ** 2 + G_c * d_lo[1] ** 2)
            n_hi = math.sqrt(E_c * d_hi[0] ** 2 + G_c * d_hi[1] ** 2)
            interior = math.acos(max(-1.0, min(1.0, dot / (n_lo * n_hi))))
            corners_by_region[lab_lo].append(
                CornerAngle(ci, lab_lo - 1, interior, math.pi - interior)
            )
            crossing_regions[ci].add(lab_lo)

    # --- boundary lengths (each arc borders its two sides) -------------------
    blen = np.zeros(m + 1)
    for (llab, rlab), alen in zip(arc_sides, arc_lengths):
        blen[llab] += alen
        blen[rlab] += alen

    xi = math.inf
    for cr in crossings:
        xi = min(xi, cr.angle, math.pi - cr.angle)
    if not crossings:
        xi = 0.0

    total_area, total_w = surface.area_and_willmore()
    regions = []
    deco = RegionDecomposition(
        surface=surface,
        trace=trace,
        grid=grid,
        labels=labels,
        blocked=blocked,
        xi=xi,
        total_area=total_area,
        total_willmore=total_w,
        arcs=arcs,
        arc_lengths=arc_lengths,
        arc_sides=arc_sides,
    )
    for i in range(1, m + 1):
        n_i = sum(1 for ci in crossing_regions if i in crossing_regions[ci])
        regions.append(
            Region(
                id=i - 1,
                area=float(sums[0, i]),
                KdA=float(sums[1, i]),
                willmore=float(sums[2, i]),
                corners=corners_by_region[i],
                N_i=n_i,
                boundary_length=float(blen[i]),
                cell_count=int(cells[i]),
                decomposition=deco,
            )
        )
    return regions


def _segment_arcs(ts, T, cuts):
    """Arc index of each polyline segment, taken at its time midpoint."""
    if not cuts:
        return np.zeros(ts.shape[0], dtype=np.int64)
    tm = np.fmod(0.5 * (ts + np.append(ts[1:], T)) - cuts[0], T)
    tm[tm < 0] += T
    i = np.searchsorted(np.array(cuts) - cuts[0], tm, side="right") - 1
    return np.clip(i, 0, len(cuts) - 1)


def _cell_candidates(blocked, seg_keys):
    """Segments with an end point in each blocked cell's 3x3 block.

    ``seg_keys`` holds the flat cell index (row * nx + column) of every
    segment's start and end point.  Rows are clipped at the poles and
    columns wrap at the seam.  Returns the blocked cells' rows and columns
    and the (cell, segment) pairs sorted by cell; a segment with both ends
    in the block appears twice.
    """
    nx = blocked.shape[1]
    n_seg = seg_keys[0].shape[0]
    keys = np.concatenate(seg_keys)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    by, bx = np.nonzero(blocked)
    # a row beyond a pole gives keys outside [0, ny * nx), which match nothing
    near = ((by[:, None] + np.repeat([-1, 0, 1], 3)) * nx
            + (bx[:, None] + np.tile([-1, 0, 1], 3)) % nx)
    first = np.searchsorted(keys, near, side="left").ravel()
    count = np.searchsorted(keys, near, side="right").ravel() - first
    # positions first[r] .. first[r] + count[r] - 1 of every run r, flattened
    pos = np.repeat(first - (np.cumsum(count) - count), count)
    pos += np.arange(pos.shape[0])
    cell = np.repeat(np.arange(by.shape[0]), count.reshape(-1, 9).sum(axis=1))
    return by, bx, cell, order[pos] % n_seg


def _antiderivative_basis():
    """Coefficients D with [z, z^2, z^3, z^4] @ D = the integrals from 0 to z
    of the Lagrange cubics through the 4 Gauss-Legendre nodes on [0, 1]."""
    z = 0.5 * (np.polynomial.legendre.leggauss(4)[0] + 1.0)
    return np.linalg.inv(np.vander(z, 4, increasing=True)) / np.arange(1, 5)[:, None]


def _redistribute(blocked, points, seg_arc, arc_sides, frame, rule, sums):
    """Add each blocked cell's integrals to the regions in it, by Green's theorem.

    ``points`` is the closed polyline, (n + 1, 2) in lifted u1 and u2, whose
    segment i lies on the arc ``seg_arc[i]``.  ``rule`` = (node, top): the
    densities at the 4 row nodes, (3, ny, 4), and their row integrals per
    unit u1, (3, ny).  ``sums`` = (area, KdA, Willmore) per label, (3,
    labels), updated in place.
    """
    lo, du1, du2 = frame
    ny = blocked.shape[0]
    sides = np.asarray(arc_sides)[seg_arc]  # left and right label per segment
    cx = np.floor(points[:, 0] / du1)
    cy = np.clip(np.floor((points[:, 1] - lo) / du2), 0, ny - 1)
    d = np.diff(points, axis=0)
    # the fraction of each segment at which it crosses a vertical and a
    # horizontal grid line, 1 where it crosses none
    with np.errstate(divide="ignore", invalid="ignore"):
        av = (np.maximum(cx[:-1], cx[1:]) * du1 - points[:-1, 0]) / d[:, 0]
        ah = (lo + np.maximum(cy[:-1], cy[1:]) * du2 - points[:-1, 1]) / d[:, 1]
    av = np.where(cx[:-1] != cx[1:], np.clip(av, 0.0, 1.0), 1.0)
    ah = np.where(cy[:-1] != cy[1:], np.clip(ah, 0.0, 1.0), 1.0)
    _add_pieces(blocked, points, d, np.stack([av, ah], axis=1), sides, frame,
                rule[0], sums)
    _add_top_edges(blocked, points, d, cx, cy, ah, sides, frame, rule[1], sums)


def _add_pieces(blocked, points, d, splits, sides, frame, node, sums):
    """Minus / plus the integral of Phi_r du1 along each piece of a segment in
    a blocked cell, to the segment's left / right region.  Phi_r, the row
    rule's integral from the row's bottom edge, is a quartic along a piece,
    so 3 Gauss points are exact."""
    lo, du1, du2 = frame
    ny, nx = blocked.shape
    n_seg = d.shape[0]
    cut = np.sort(np.hstack([np.zeros((n_seg, 1)), splits, np.ones((n_seg, 1))]))
    seg = np.repeat(np.arange(n_seg), 3)
    sa, sb = cut[:, :-1].ravel(), cut[:, 1:].ravel()
    mid = points[seg] + (0.5 * (sa + sb))[:, None] * d[seg]
    row = np.clip(np.floor((mid[:, 1] - lo) / du2), 0, ny - 1).astype(np.int64)
    keep = (sb > sa) & blocked[row, np.floor(mid[:, 0] / du1).astype(np.int64) % nx]
    seg, sa, sb, row = seg[keep], sa[keep], sb[keep], row[keep]
    g_x, g_w = np.polynomial.legendre.leggauss(3)
    s = sa[:, None] + (sb - sa)[:, None] * (0.5 * (g_x + 1.0))
    z = (points[seg, 1, None] + s * d[seg, 1, None] - lo) / du2 - row[:, None]
    basis = ((0.5 * g_w) @ (z[..., None] ** np.arange(1, 5))) @ _antiderivative_basis()
    basis *= ((sb - sa) * d[seg, 0] * du2)[:, None]
    n_lab = sums.shape[1]
    for total, node_q in zip(sums, node):
        flux = np.einsum("pk,pk->p", node_q[row], basis)
        total -= np.bincount(sides[seg, 0], weights=flux, minlength=n_lab)
        total += np.bincount(sides[seg, 1], weights=flux, minlength=n_lab)


def _add_top_edges(blocked, points, d, cx, cy, ah, sides, frame, top, sums):
    """Phi_r(top) times each interval of a blocked cell's top edge between
    the trace's crossings of that line, to the side of the segment nearest
    the interval's midpoint (ties to the lowest segment index)."""
    lo, du1, du2 = frame
    nx = blocked.shape[1]
    end_key = cy.astype(np.int64) * nx + cx.astype(np.int64) % nx
    by, bx, cand_cell, cand_seg = _cell_candidates(blocked, (end_key[:-1], end_key[1:]))
    # the crossings of the horizontal lines, in the cell below the line
    cross = np.flatnonzero(cy[:-1] != cy[1:])
    xc = points[cross, 0] + ah[cross] * d[cross, 0]
    fc = np.floor(xc / du1)
    key = ((np.maximum(cy[cross], cy[cross + 1]) - 1).astype(np.int64) * nx
           + fc.astype(np.int64) % nx)
    cell_key = by * nx + bx
    at = np.minimum(np.searchsorted(cell_key, key), cell_key.shape[0] - 1)
    hit = cell_key[at] == key
    n_cell = by.shape[0]
    ci = np.concatenate([at[hit], np.arange(n_cell), np.arange(n_cell)])
    xi = np.concatenate([(xc / du1 - fc)[hit], np.zeros(n_cell), np.ones(n_cell)])
    order = np.lexsort((xi, ci))
    ci, xi = ci[order], xi[order]
    edge = np.flatnonzero((ci[1:] == ci[:-1]) & (xi[1:] > xi[:-1]))
    ci, a, b = ci[edge], xi[edge], xi[edge + 1]
    qx = (bx[ci] + 0.5 * (a + b)) * du1
    qy = lo + (by[ci] + 1) * du2
    # the (interval, candidate) pairs, a chunk of intervals at a time
    n_cand = np.bincount(cand_cell, minlength=n_cell)
    first = np.cumsum(n_cand) - n_cand
    cnt = n_cand[ci]
    start = np.cumsum(cnt) - cnt
    lab = np.empty(ci.shape[0], dtype=sides.dtype)
    bounds = [0, *(np.flatnonzero(np.diff(start // _CHUNK)) + 1), ci.shape[0]]
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        c = cnt[i0:i1]
        at = np.cumsum(c) - c
        pair = np.repeat(np.arange(i0, i1), c)
        cand = cand_seg[np.repeat(first[ci[i0:i1]] - at, c) + np.arange(pair.shape[0])]
        fx, fy = _offsets(points, qx[pair], qy[pair], cand)
        ex, ey = d[cand, 0], d[cand, 1]
        tpar = np.clip((fx * ex + fy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
        dist = ((fx - tpar * ex) / du1) ** 2 + ((fy - tpar * ey) / du2) ** 2
        dmin = np.minimum.reduceat(dist, at)
        near = np.minimum.reduceat(np.where(dist == dmin[pair - i0], cand, d.shape[0]), at)
        fx, fy = _offsets(points, qx[i0:i1], qy[i0:i1], near)
        lab[i0:i1] = sides[near, np.where(d[near, 0] * fy - d[near, 1] * fx > 0.0, 0, 1)]
    for total, t in zip(sums, top[:, by[ci]] * ((b - a) * du1)):
        total += np.bincount(lab, weights=t, minlength=sums.shape[1])


def _offsets(points, qx, qy, seg):
    """(qx, qy) minus each segment's start, qx lifted by whole turns next to it."""
    kshift = np.round((0.5 * (points[seg, 0] + points[seg + 1, 0]) - qx) / (2.0 * math.pi))
    return qx + 2.0 * math.pi * kshift - points[seg, 0], qy - points[seg, 1]


def region_gauss_bonnet(region, xi=None, tol=1e-3):
    """(KdA, exterior angle sum, residual of KdA = 2 pi - sum of angles).

    Also asserts the strict bound KdA < 2 pi for noninjective geodesics and,
    when a uniform angle floor xi is supplied, KdA <= 2 pi - N_i xi.
    """
    angle_sum = region.exterior_angle_sum()
    residual = abs(region.KdA - (2.0 * math.pi - angle_sum))
    checks = {"residual_ok": residual < tol}
    if region.corners:
        checks["below_2pi"] = region.KdA < 2.0 * math.pi
    if xi is not None:
        checks["angle_bound"] = region.KdA <= 2.0 * math.pi - region.N_i * xi + tol
    return region.KdA, angle_sum, residual, checks


def complement_energy_audit(regions, tol=1e-3):
    """Willmore energy of each region's complement against 2 pi (+ N_i xi)."""
    if not regions:
        return []
    deco = regions[0].decomposition
    total_W, xi = deco.total_willmore, deco.xi
    reports = []
    for r in regions:
        comp = total_W - r.willmore
        reports.append(
            AuditReport(
                name=f"complement-energy-region-{r.id}",
                lhs=comp,
                rhs=2.0 * math.pi,
                tolerance=tol,
                inputs={"region": r.id, "N_i": r.N_i, "xi": xi},
            )
        )
        reports.append(
            AuditReport(
                name=f"complement-energy-angle-region-{r.id}",
                lhs=comp,
                rhs=2.0 * math.pi + r.N_i * xi,
                tolerance=tol,
                inputs={"region": r.id, "N_i": r.N_i, "xi": xi},
            )
        )
    return reports


def export_region_table(regions, path):
    write_csv(
        path,
        ["id", "area", "KdA", "willmore", "N_i", "boundary_length", "cells",
         "corner_angles"],
        [[r.id, r.area, r.KdA, r.willmore, r.N_i, r.boundary_length, r.cell_count,
          ";".join(repr(c.exterior) for c in r.corners)] for r in regions],
    )


def mask_to_pgm(mask, path=None):
    """Portable graymap (P2) text rendering of a boolean mask for debugging."""
    ny, nx = mask.shape
    lines = ["P2", f"{nx} {ny}", "1"]
    # one row's text from its bytes: b"0"/b"1" is 48 plus the cell's bool
    for row in np.asarray(mask, dtype=bool)[::-1]:
        lines.append(" ".join((row.view(np.uint8) + 48).tobytes().decode()))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
