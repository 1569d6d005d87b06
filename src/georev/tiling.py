"""Tiling of a closed revolution surface by a closed geodesic.

The geodesic trace is rasterized onto a grid over the (u1 mod 2 pi, u2)
parameter rectangle (seam-aware, poles as ordinary rows); the complement is
labeled by 4-connected flood fill, which is leak-free because consecutive
blocked cells are 8-neighbors.  Each sample is binned a millionth of a step
inside the steps on either side of it, so a sample on a grid vertex, where
the exact geodesic may pass, blocks only cells the curve enters whichever
way rounding moves it.  Cells crossed by the trace are redistributed
to their adjacent regions by supersampling and an exact side-of-segment
test, which keeps per-region curvature integrals accurate to well below the
grid scale.  Corner angles at the self-intersections go to the regions
of the four sectors there: each sector takes its region from the two arcs
that bound it, whose left and right regions are probed at the arc
midpoints, and the two arcs must agree.

The redistribution is array code over all blocked cells at once.  Each
cell's candidate segments (those with an end point in its 3x3
neighbourhood) come from one sort of the segment end-point cells; cells
with equally many candidates are evaluated together in bounded chunks.  It
relies on two facts.  The lift of a subpoint's angle next to a candidate
segment, round((mid - u1) / 2 pi), is the same for every subpoint of a cell,
because each candidate lies within about two cells of it, far from the half
period where the rounding could change.  And each cell's candidates are
sorted and distinct, so the nearest-segment argmin breaks ties towards the
first (lowest) segment index.  Per-cell, per-region sums are added in
subpoint order, then into the region totals in blocked-cell order.

The chunks run on up to 4 threads, no more than the CPUs the process may
use; numpy releases the GIL in the large array calls that dominate them.
The threads share the memory budget of one chunk in flight and take half of
it, ``_CHUNK // (2 * workers)`` elements each, because every thread's
allocator arena keeps its own freed temporaries.  Every chunk writes only
its own cells' rows of the per-cell sums, and the main thread adds those
rows into the totals in blocked-cell order afterwards, so every float is
the same whatever the scheduling and the number of threads.  The threads
run numpy only, never a georev function or profile method.

For a region D with exterior angles alpha at its corners the audit
quantifies the defect identity: integral of K over D equals 2 pi minus the
sum of the alphas.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
_CHUNK = 1 << 18  # elements per chunk of array work; bounds the temporaries
_N_RASTER = 32768  # trace samples, raised when a step spans most of a cell
_NUDGE = 1e-6  # fraction of a step by which its ends are binned inside it
_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKERS = min(4, _cpu_count())  # threads for the redistribution chunks


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


def decompose_regions(surface, trace, grid=DEFAULT_GRID, subsample=16):
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

    # --- row quantities and interior sums -----------------------------------
    # all integrands are u1-independent, so a per-row Gauss-Legendre rule in
    # u2 makes the interior sums exact up to the blocked boundary strip
    gl_x, gl_w = np.polynomial.legendre.leggauss(4)
    rows = lo + (np.arange(ny)[:, None] + 0.5 * (gl_x[None, :] + 1.0)) * du2
    K_n, H2_n, h_n, gam_n = surface.curvature_grids(rows.ravel())
    K_n = K_n.reshape(ny, 4)
    H2_n = H2_n.reshape(ny, 4)
    dens = (h_n * gam_n).reshape(ny, 4)
    w_row = (dens @ gl_w) * (0.5 * du2) * du1
    kw_row = ((K_n * dens) @ gl_w) * (0.5 * du2) * du1
    ew_row = ((0.25 * H2_n * dens) @ gl_w) * (0.5 * du2) * du1
    # a band of rows at a time, with no full-grid weight copy: np.add.at
    # adds in cell order, exactly as one bincount over the grid would
    area, kda, wil = (np.zeros(m + 1) for _ in range(3))
    cells = np.zeros(m + 1, dtype=np.int64)
    band = max(1, _CHUNK // nx)
    for r0 in range(0, ny, band):
        lab = labels[r0:r0 + band].ravel()
        for total, row in zip((area, kda, wil), (w_row, kw_row, ew_row)):
            np.add.at(total, lab, np.repeat(row[r0:r0 + band], nx))
        cells += np.bincount(lab, minlength=m + 1)

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

    # --- redistribute blocked cells by exact side-of-segment tests ----------
    _redistribute(
        surface, blocked,
        np.stack([u1s, u2s], axis=1), np.stack([u1e, u2e], axis=1),
        (iy * nx + ix, iy_e * nx + ix_e), _segment_arcs(ts, T, cuts), arc_sides,
        (lo, du1, du2), subsample, (area, kda, wil),
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
                area=float(area[i]),
                KdA=float(kda[i]),
                willmore=float(wil[i]),
                corners=corners_by_region[i],
                N_i=n_i,
                boundary_length=float(blen[i]),
                cell_count=int(cells[i]),
                decomposition=deco,
            )
        )
    return regions


def _segment_arcs(ts, T, cuts):
    """Arc index of each raster segment, taken at its time midpoint."""
    if not cuts:
        return np.zeros(ts.shape[0], dtype=np.int64)
    tm = np.fmod(0.5 * (ts + np.append(ts[1:], T)) - cuts[0], T)
    tm[tm < 0] += T
    i = np.searchsorted(np.array(cuts) - cuts[0], tm, side="right") - 1
    return np.clip(i, 0, len(cuts) - 1)


def _cell_candidates(blocked, seg_keys):
    """Distinct segments with an end point in each blocked cell's 3x3 block.

    ``seg_keys`` holds the flat cell index (row * nx + column) of every
    segment's start and end point.  Rows are clipped at the poles and
    columns wrap at the seam.  Returns the blocked cells' rows and columns
    and the (cell, segment) pairs sorted by cell, then segment.
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
    pairs = np.unique(cell * n_seg + order[pos] % n_seg)
    return by, bx, pairs // n_seg, pairs % n_seg


def _redistribute(surface, blocked, seg_p0, seg_p1, seg_keys, seg_arc,
                  arc_sides, frame, sub, sums):
    """Add each blocked cell's supersampled integrals to the regions beside it.

    Every one of a cell's sub x sub subpoints goes to the left or right
    region of its nearest candidate segment.  ``sums`` = (area, KdA,
    Willmore) per label, updated in place.
    """
    lo, du1, du2 = frame
    ny = blocked.shape[0]
    n_lab = sums[0].shape[0]
    by, bx, cell, seg = _cell_candidates(blocked, seg_keys)
    n_cand = np.bincount(cell, minlength=by.shape[0])
    first = np.cumsum(n_cand) - n_cand
    left = np.array([a[0] for a in arc_sides])
    right = np.array([a[1] for a in arc_sides])
    two_pi = 2.0 * math.pi
    offs = (np.arange(sub) + 0.5) / sub
    # subpoint weights on every (row, sub-row) latitude from one call
    Ksub, H2sub, hh, gg = surface.curvature_grids(
        (lo + (np.arange(ny)[:, None] + offs) * du2).ravel()
    )
    wsub = hh * gg * (du1 * du2 / (sub * sub))
    weights = [q.reshape(ny, sub) for q in (wsub, Ksub * wsub, 0.25 * H2sub * wsub)]
    per_cell = np.zeros((3, by.shape[0], n_lab))

    def fill_chunk(task):
        # numpy only: no georev function or ProfileCurve method may run on a
        # worker thread, where a wrapper's call stack (a tracer's) would see
        # interleaved calls; the curvature weights are computed above
        k, idx = task
        n = idx.shape[0]
        cy, cx = by[idx], bx[idx]
        cand = seg[first[idx, None] + np.arange(k)]
        p0 = seg_p0[cand]
        p1 = seg_p1[cand]
        pu1 = (cx[:, None] + offs) * du1
        pu2 = lo + (cy[:, None] + offs) * du2
        # lift the subpoint angle into each candidate segment's
        # neighborhood; every candidate lies within about two cells of
        # the cell, so the rounding is the same for all its subpoints
        mid = 0.5 * (p0[..., 0] + p1[..., 0])
        kshift = np.round((mid - ((cx + 0.5) * du1)[:, None]) / two_pi)
        ex = p1[..., 0] - p0[..., 0]
        ey = p1[..., 1] - p0[..., 1]
        # (cell, sub-column, candidate) and (cell, sub-row, candidate)
        fx = (pu1[:, :, None] + two_pi * kshift[:, None, :]) - p0[:, None, :, 0]
        fy = pu2[:, :, None] - p0[:, None, :, 1]
        ee = ex * ex + ey * ey
        ex4, ey4 = ex[:, None, None, :], ey[:, None, None, :]
        # (cell, sub-row, sub-column, candidate) from here on
        tpar = fx[:, None] * ex4 + fy[:, :, None] * ey4
        tpar /= ee[:, None, None, :]
        np.clip(tpar, 0.0, 1.0, out=tpar)
        dx = fx[:, None] - tpar * ex4
        tpar *= ey4
        dy_ = np.subtract(fy[:, :, None], tpar, out=tpar)
        dx /= du1
        np.square(dx, out=dx)
        dy_ /= du2
        np.square(dy_, out=dy_)
        dx += dy_
        nearest = np.argmin(dx, axis=-1)
        ci = np.arange(n)[:, None, None]
        cross = (ex[ci, nearest] * fy[ci, np.arange(sub)[:, None], nearest]
                 - ey[ci, nearest] * fx[ci, np.arange(sub), nearest])
        arcs_near = seg_arc[cand[ci, nearest]]
        lab_sub = np.where(cross > 0.0, left[arcs_near], right[arcs_near])
        key = (ci * n_lab + lab_sub).ravel()
        for q, w in enumerate(weights):
            per_cell[q, idx] = np.bincount(
                key, weights=np.repeat(w[cy], sub, axis=1).ravel(),
                minlength=n * n_lab,
            ).reshape(n, n_lab)

    # the chunks in flight share one memory budget; worker threads take half
    # of it between them, because each thread's allocator arena keeps its
    # own freed temporaries besides the main thread's
    workers = _WORKERS
    share = _CHUNK if workers == 1 else _CHUNK // (2 * workers)
    tasks = []
    for k in np.unique(n_cand[n_cand > 0]):
        group = np.flatnonzero(n_cand == k)
        step = max(1, share // (sub * sub * k))
        tasks.extend((k, group[start:start + step])
                     for start in range(0, group.shape[0], step))
    if workers == 1:
        for task in tasks:
            fill_chunk(task)
    else:
        # every task writes its own rows of per_cell; map re-raises the
        # first error, and leaving the block joins the threads
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(fill_chunk, tasks):
                pass

    # add the cells into the totals one by one, in blocked-cell order
    for total, part in zip(sums, per_cell):
        total[:] = np.add.accumulate(np.vstack([total, part]), axis=0)[-1]


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
