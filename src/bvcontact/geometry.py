"""Planar polygonal domains, corner trace constants, and admissibility checks.

The geometric quantity of interest is the local trace constant q(x): it is 1
at flat boundary points and 1/sin(theta/2) at a convex corner of interior
angle theta, equivalently sqrt(1 + l^2) for the wedge {x2 > l|x1|} with
l = cot(theta/2) > 0.  Reentrant corners (theta >= pi) contribute 1.  The
global constant Q is the sup over the boundary and enters the trace
inequality  int_{bd} |Tr u| <= (Q + eps) TV(u) + C int |u|.  Admissibility
asks sup L(x) q(x) < sigma; as q is 1 off the vertices, that sup is read from
the vertices and the declared sup of L, with no edge sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LayerTooThin, SchemaError

ANGLE_TOL = 1e-9
FLAT_TOL = 1e-12
#: PolygonalDomain's simplicity check tests edge pairs in blocks of rows of
#: about this many pairs, so its temporaries stay bounded for large polygons
SIMPLE_CHECK_PAIRS = 1 << 16
#: smallest arc-window half-width of the boundary-layer extension
MIN_HALF_WIDTH = 1e-12


def corner_q(theta: float) -> float:
    """Local trace constant of a wedge with interior angle theta in (0, 2*pi).

    Returns 1/sin(theta/2) for theta < pi (convex corner) and 1.0 for
    theta >= pi (flat point or reentrant corner).
    """
    if not (ANGLE_TOL < theta < 2 * math.pi - ANGLE_TOL):
        raise ValueError(f"interior angle must lie in (0, 2*pi), got {theta}")
    if theta >= math.pi:
        return 1.0
    return 1.0 / math.sin(theta / 2.0)


def wedge_cut_ratio(theta: float, cut_depth: float) -> float:
    """Boundary-to-interior perimeter ratio of the triangular corner cut.

    For the isoceles triangle E with legs of length `cut_depth` along both
    edges of a convex corner of opening theta, returns
    (boundary part of dE) / (interior part of dE).  Built from the actual
    vertex coordinates so it serves as an independent oracle for corner_q;
    the ratio is scale invariant in cut_depth.
    """
    if not (ANGLE_TOL < theta < math.pi - ANGLE_TOL):
        raise ValueError("cut family needs a convex corner: theta in (0, pi)")
    if cut_depth <= 0:
        raise ValueError("cut_depth must be positive")
    a = cut_depth
    half = theta / 2.0
    # corner at origin, edges symmetric about the x-axis
    p1 = (a * math.cos(half), a * math.sin(half))
    p2 = (a * math.cos(half), -a * math.sin(half))
    chord = math.hypot(p1[0] - p2[0], p1[1] - p2[1])
    return 2.0 * a / chord


@dataclass(frozen=True)
class CornerRecord:
    """Per-vertex corner data: interior angle and wedge slope cot(theta/2)."""

    index: int
    theta: float
    wedge_slope: float | None  # cot(theta/2) when theta < pi, else None

    @property
    def q(self) -> float:
        return corner_q(self.theta)


class PolygonalDomain:
    """Simple planar polygon, counterclockwise, with corner bookkeeping.

    Corners (vertices with interior angle != pi) form the finite singular
    set of the boundary; everything else is flat.  Every angle, corner
    record and the Lipschitz constant max |cot(theta/2)| are computed from
    the vertices, so a polygon is judged by its own geometry.
    """

    def __init__(self, vertices, name=None):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise SchemaError("vertices must be an (n,2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            bad = int(np.argwhere(~np.isfinite(v))[0][0])
            raise SchemaError("non-finite vertex coordinate", location=f"vertex {bad}")
        repeated = np.flatnonzero(np.all(np.isclose(v, np.roll(v, -1, axis=0)), axis=1))
        if len(repeated):
            raise SchemaError("repeated consecutive vertex", location=f"vertex {repeated[0]}")
        area2 = float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        if area2 < 0:
            raise SchemaError("vertices must be ordered counterclockwise")
        self.vertices = v
        self.n = v.shape[0]
        self.name = name
        self._check_simple()

        e = np.roll(v, -1, axis=0) - v
        self.edge_lengths = np.hypot(e[:, 0], e[:, 1])
        self.perimeter = float(self.edge_lengths.sum())
        self.area = 0.5 * abs(area2)
        self.shortest_edge = float(self.edge_lengths.min())
        # boundary band: grid distance maps are exact in it, extension layers end at it
        self.band_width = 0.5 * self.shortest_edge
        # outward normal of each edge; interior lies left of the edge direction
        t = e / self.edge_lengths[:, None]
        self.edge_normals = np.column_stack([t[:, 1], -t[:, 0]])
        self.arc_offsets = np.concatenate([[0.0], np.cumsum(self.edge_lengths)])

        self.interior_angles = angles = self._interior_angles()
        bad = np.flatnonzero(~((ANGLE_TOL < angles) & (angles < 2 * math.pi - ANGLE_TOL)))
        if len(bad):
            raise SchemaError(f"cusp or invalid interior angle {angles[bad[0]]}",
                              location=f"vertex {bad[0]}")
        half = angles / 2.0
        corners = np.flatnonzero(np.abs(angles - math.pi) > 1e-9)
        convex = corners[angles[corners] < math.pi - FLAT_TOL]
        slopes = dict(zip(convex.tolist(), (1.0 / _libm(math.tan, half[convex])).tolist()))
        self.corner_records = [CornerRecord(i, float(angles[i]), slopes.get(i))
                               for i in corners.tolist()]
        self.lipschitz_constant = float(
            np.abs(_libm(math.cos, half) / _libm(math.sin, half)).max())
        self._grids = {}

    # -- construction helpers -------------------------------------------------

    def _interior_angles(self):
        """pi minus the turn at each vertex, from the edges into and out of it."""
        v = self.vertices
        prev = v - np.roll(v, 1, axis=0)
        nxt = np.roll(v, -1, axis=0) - v
        cross = prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]
        dot = prev[:, 0] * nxt[:, 0] + prev[:, 1] * nxt[:, 1]
        return math.pi - np.fromiter(map(math.atan2, cross.tolist(), dot.tolist()),
                                     float, self.n)

    def _check_simple(self):
        """Raise SchemaError at the first crossing pair of edges (i, j),
        i + 2 <= j, in row-major order.  Rows of pairs are tested in blocks
        of at most about SIMPLE_CHECK_PAIRS pairs."""
        a, n = self.vertices, self.n
        d = np.roll(a, -1, axis=0) - a
        rows = max(1, SIMPLE_CHECK_PAIRS // n)
        for i0 in range(0, n - 2, rows):
            i = np.arange(i0, min(i0 + rows, n - 2))[:, None]
            js = np.arange(i0 + 2, n)
            d1x, d1y = d[i, 0], d[i, 1]
            d2x, d2y = d[js, 0], d[js, 1]
            denom = d1x * d2y - d1y * d2x
            wx, wy = a[js, 0] - a[i, 0], a[js, 1] - a[i, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                tt = (wx * d2y - wy * d2x) / denom
                ss = (wx * d1y - wy * d1x) / denom
            crossing = (np.abs(denom) > 1e-14) & (tt > 1e-12) & (tt < 1 - 1e-12) \
                & (ss > 1e-12) & (ss < 1 - 1e-12) & (js >= i + 2) & ((i > 0) | (js < n - 1))
            hit = np.argwhere(crossing)
            if len(hit):
                r, c = hit[0]
                raise SchemaError("polygon is self-intersecting",
                                  location=f"edges {i0 + r} and {js[c]}")

    # -- point queries ---------------------------------------------------------

    def _edge_distance(self, i, x, y):
        """Distance from the points (x, y), broadcast together, to edge i and
        the arc position of the nearest point.  The projection stays one
        matmul of the offsets from the edge's first vertex as (n, 2) rows:
        an elementwise dot product rounds differently where BLAS uses FMA."""
        a = self.vertices[i]
        d = self.vertices[(i + 1) % self.n] - a
        off = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)) + (2,))
        np.subtract(x, a[0], out=off[..., 0])
        np.subtract(y, a[1], out=off[..., 1])
        t = (off.reshape(-1, 2) @ d).reshape(off.shape[:-1])
        del off
        t /= d @ d
        np.clip(t, 0.0, 1.0, out=t)
        fx, fy = t * d[0], t * d[1]             # the nearest point, then (x, y) less it
        fx += a[0]
        fy += a[1]
        np.subtract(x, fx, out=fx)
        np.subtract(y, fy, out=fy)
        dist = np.hypot(fx, fy, out=fx)
        t *= self.edge_lengths[i]
        t += self.arc_offsets[i]
        return dist, t

    def boundary_point(self, s):
        """Boundary point at arc-length position s (wraps around)."""
        s = np.asarray(s, dtype=float) % self.perimeter
        idx = np.clip(np.searchsorted(self.arc_offsets, s, side="right") - 1, 0, self.n - 1)
        t = (s - self.arc_offsets[idx]) / self.edge_lengths[idx]
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % self.n]
        return a + t[..., None] * (b - a)

    def edge_samples(self, step):
        """Midpoint samples of every edge at spacing <= step: k = ceil(len/step)
        samples on an edge at fractions (j + 1/2)/k, as arc positions s,
        weights len/k and edge ids; the points are boundary_point(s)."""
        k = np.maximum(1, np.ceil(self.edge_lengths / step).astype(int))
        eid = np.repeat(np.arange(self.n), k)
        j = np.arange(len(eid)) - np.repeat(np.cumsum(k) - k, k)
        length = self.edge_lengths[eid]
        s = self.arc_offsets[eid] + (j + 0.5) / k[eid] * length
        return s, length / k[eid], eid

    def grid(self, h):
        """Discretization geometry at spacing h, built on the first ask and kept.

        Functions given a field or a trace take its grid; the CLI runners and
        the counterexample families start from (domain, h) and share grids
        through this memo.  It and DomainGrid.dom form a reference cycle, and
        it stays: without it, desk-study's peak RSS fell from 70.9 to 60.3 MiB
        but its wall time rose in 9 of 10 paired runs (median ratio 1.08), as
        each operation faulted 700-5000 pages of the trimmed heap back in
        (ROADMAP, "Measured, not taken").
        """
        key = round(float(h), 14)
        if key not in self._grids:
            self._grids[key] = DomainGrid(self, float(h))
        return self._grids[key]


def _libm(fn, x):
    """The math-module function fn at each entry of x.  numpy's SIMD atan2,
    tan, sin and cos may differ from libm in the last bit, and the corner
    data stay the values the scalar functions give."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _crossings(a, b, y):
    """Where the edges a -> b cross the horizontal line(s) y: which edges
    straddle y (half-open in y, so a vertex counts once) and the abscissa."""
    cond = (a[..., 1] > y) != (b[..., 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[..., 0] + (y - a[..., 1]) * (b[..., 0] - a[..., 0]) / (b[..., 1] - a[..., 1])
    return cond, xint


def _scanline_mask(v, xs, ys):
    """The cells (ys x xs) inside the polygon v by the even-odd rule: each
    crossing of a row toggles the cells strictly left of it, as one toggle
    at column 0 and one at the first cell not left of it, and a running
    XOR along the row sums the toggles.  One byte per cell."""
    cond, xint = _crossings(v, np.roll(v, -1, axis=0), ys[:, None])
    r, e = np.nonzero(cond)
    pos = np.searchsorted(xs, xint[r, e], side="left")
    del cond, xint
    ends = pos < len(xs)
    toggles = np.zeros((len(ys), len(xs)), dtype=np.uint8)
    np.bitwise_xor.at(toggles[:, 0], r, 1)
    np.bitwise_xor.at(toggles, (r[ends], pos[ends]), 1)
    np.bitwise_xor.accumulate(toggles, axis=1, out=toggles)
    return toggles.view(bool)


def domain_Q(dom: PolygonalDomain) -> float:
    """Global trace constant: sup of the local constant over the boundary."""
    q = 1.0
    for rec in dom.corner_records:
        q = max(q, rec.q)
    return q


@dataclass
class AdmissibilityReport:
    """Least slack of the products L(x) q(x) along the boundary, and the verdict.

    min_slack is (1-2*eps0)*sigma less the sup of L*q: the declared sup of
    L on the open edges (where q = 1), L(v)*corner_q at each vertex v.
    verdict is 'almost_C1_clause' (min_slack > 1e-12) or 'inadmissible'.
    """

    verdict: str
    min_slack: float


def admissibility_check(dom: PolygonalDomain, density, sigma: float,
                        epsilon0: float) -> AdmissibilityReport:
    """Check L(x) q(x) < (1 - 2*eps0) * sigma along the boundary, sampling
    no edge: q = 1 on the open edges, where L is at most density.L_sup (a
    callable L without .sup raises ValueError), and q = corner_q(theta) at
    each vertex v, where L is L(v).  A curved boundary is reached only as a
    limit: on the regular n-gon the threshold for linear(-L) is sup L =
    sigma cos(pi/n), which tends to sigma.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if epsilon0 < 0:
        raise ValueError("epsilon0 must be nonnegative")
    bound = (1.0 - 2.0 * epsilon0) * sigma
    at_vertices = max(density.L_at(v) * corner_q(th)
                      for v, th in zip(dom.vertices, dom.interior_angles))
    min_slack = float(bound - max(density.L_sup, at_vertices))
    verdict = "almost_C1_clause" if min_slack > 1e-12 else "inadmissible"
    return AdmissibilityReport(verdict=verdict, min_slack=min_slack)


def emmer_check(nu: float, dom: PolygonalDomain) -> dict:
    """Capillarity existence bound |nu| < 1/sqrt(1 + Lip(boundary)^2)."""
    bound = 1.0 / math.sqrt(1.0 + dom.lipschitz_constant ** 2)
    return {"passes": bool(abs(nu) < bound), "bound": bound,
            "nu": float(nu), "lipschitz_constant": dom.lipschitz_constant}


class DomainGrid:
    """Masked-lattice discretization of a polygon at spacing h.

    Holds everything that depends only on (domain, h): the cell mask, cell
    centers, boundary samples with arc positions / weights / probe
    cells, the neighbor masks of the masked gradient, and (built on first
    use, per kappa) the extension's arc-window table, out to the widest layer
    asked for so far (at most W = dom.band_width).

    The mask is built in one pass over the scanline crossing table: a cell
    is inside when an odd number of its row's crossings lie strictly right
    of its centre.  A lattice under the 2^31-cell cap whose mask, distance
    maps or arc-window table does not fit in memory raises SchemaError at
    grid_h, as one over the cap does.
    """

    def __init__(self, dom: PolygonalDomain, h: float):
        if h <= 0:
            raise ValueError("h must be positive")
        self.dom = dom
        self.h = h
        v = dom.vertices
        x0, y0 = v[:, 0].min(), v[:, 1].min()
        x1, y1 = v[:, 0].max(), v[:, 1].max()
        # ArcWindows indexes cells with int32, so at most 2^31 of them.  Check
        # before allocating, on Python floats (a tiny h gives inf, no warning);
        # rounding and the snap below add at most 1.5 cells per axis.
        rx, ry = float(x1 - x0) / float(h), float(y1 - y0) / float(h)
        if not (rx + 1.5) * (ry + 1.5) <= 2.0 ** 31:
            raise SchemaError(f"h = {h:.4g} could give {dom.name} more than 2^31 grid cells",
                              location="grid_h")
        nx = max(1, int(round(rx)))
        ny = max(1, int(round(ry)))
        # snap the lattice so the bounding box is covered
        if x0 + nx * h < x1 - 1e-12 * h:
            nx += 1
        if y0 + ny * h < y1 - 1e-12 * h:
            ny += 1
        self.origin = (float(x0), float(y0))
        self.nx, self.ny = nx, ny
        try:
            xs = x0 + (np.arange(nx) + 0.5) * h
            ys = y0 + (np.arange(ny) + 0.5) * h
            self.mask = _scanline_mask(v, xs, ys)
        except MemoryError:
            raise self._out_of_memory("mask") from None
        self.xs, self.ys = xs, ys
        if not self.mask.any():
            raise LayerTooThin(f"h = {h:.4g} leaves no cell center inside {dom.name}")
        self.cell_area = h * h
        self._boundary = None
        self._neighbors = None
        self._arc_windows = {}

    def _out_of_memory(self, what):
        """The SchemaError at grid_h for a MemoryError while building what."""
        return SchemaError(f"h = {self.h:.4g} gives {self.dom.name} a {self.ny} x {self.nx} "
                           f"lattice whose {what} does not fit in memory", location="grid_h")

    @property
    def n_cells(self):
        return int(self.mask.sum())

    def cell_centers(self):
        X, Y = np.meshgrid(self.xs, self.ys)
        return X, Y

    def neighbor_masks(self):
        """ok of shape (2, ny, nx), built once: ok[0] / ok[1] marks the masked
        cells whose forward x / y neighbor is masked too; the masked gradient
        is zero elsewhere."""
        if self._neighbors is None:
            m = self.mask
            ok = np.zeros((2,) + m.shape, dtype=bool)
            np.logical_and(m[:, :-1], m[:, 1:], out=ok[0, :, :-1])
            np.logical_and(m[:-1, :], m[1:, :], out=ok[1, :-1, :])
            self._neighbors = ok
        return self._neighbors

    # -- boundary sampling -----------------------------------------------------

    def boundary(self):
        """Boundary sample table (built once): arc positions, weights,
        closest edge ids, and the interior probe cell for each sample."""
        if self._boundary is None:
            self._boundary = self._build_boundary()
        return self._boundary

    def _build_boundary(self):
        dom = self.dom
        s, w, eid = dom.edge_samples(self.h)
        x = dom.boundary_point(s)
        probe = self._probe_cells(x, dom.edge_normals[eid])
        return BoundarySamples(s=s, x=x, w=w, edge_id=eid, probe=probe)

    def _probe_cells(self, x, normal):
        """The flat lattice index of each sample's probe cell."""
        h = self.h
        n = len(x)
        probe = np.full(n, -1, dtype=int)
        todo = np.ones(n, dtype=bool)
        for depth in np.arange(0.5, 6.01, 0.5):
            if not todo.any():
                break
            pt = x[todo] - depth * h * normal[todo]
            jx = np.floor((pt[:, 0] - self.origin[0]) / h).astype(int)
            jy = np.floor((pt[:, 1] - self.origin[1]) / h).astype(int)
            ok = (jx >= 0) & (jx < self.nx) & (jy >= 0) & (jy < self.ny)
            ok[ok] &= self.mask[jy[ok], jx[ok]]
            idx = np.flatnonzero(todo)[ok]
            probe[idx] = jy[ok] * self.nx + jx[ok]
            todo[idx] = False
        if todo.any():
            # fall back to the globally nearest masked cell
            cells = np.flatnonzero(self.mask)
            my, mx = np.divmod(cells, self.nx)
            cx = self.origin[0] + (mx + 0.5) * h
            cy = self.origin[1] + (my + 0.5) * h
            for j in np.flatnonzero(todo):
                d2 = (cx - x[j, 0]) ** 2 + (cy - x[j, 1]) ** 2
                probe[j] = cells[int(np.argmin(d2))]
        return probe

    # -- interior distance/arc maps (for the extension) -------------------------

    def distance_maps(self, reach=None):
        """(dist, arc) arrays over the full lattice, computed afresh on each
        call: exact for masked cells closer than reach (by default W =
        dom.band_width) to the boundary, inf/0 outside that band.  Each edge
        is evaluated only on the cells of its bounding box grown by reach
        (and two cells), by dom._edge_distance; nearer edges win in edge
        order, written into views of the box.  The grid keeps only the band
        cells, in arc_windows.  A MemoryError raises SchemaError at grid_h."""
        try:
            dom, h = self.dom, self.h
            reach = dom.band_width if reach is None else float(reach)
            d, s = np.full((self.ny, self.nx), np.inf), np.zeros((self.ny, self.nx))
            a, b = dom.vertices, np.roll(dom.vertices, -1, axis=0)
            grow = reach + 2 * h
            lo = np.floor((np.minimum(a, b) - grow - self.origin) / h).astype(int)
            hi = np.ceil((np.maximum(a, b) + grow - self.origin) / h).astype(int)
            lo, hi = np.maximum(lo, 0), np.minimum(hi, (self.nx, self.ny))
            for i in range(dom.n):
                rows, cols = slice(lo[i, 1], hi[i, 1]), slice(lo[i, 0], hi[i, 0])
                dist, arc = dom._edge_distance(i, self.xs[cols], self.ys[rows, None])
                upd = dist < d[rows, cols]
                np.copyto(d[rows, cols], dist, where=upd)
                np.copyto(s[rows, cols], arc, where=upd)
            outside = d >= reach
            outside |= ~self.mask
            np.copyto(d, np.inf, where=outside)
            np.copyto(s, 0.0, where=outside)
            return d, s
        except MemoryError:
            raise self._out_of_memory("distance maps") from None

    def arc_windows(self, kappa, reach):
        """ArcWindows of the boundary-layer extension at this kappa, out to
        at least reach (at most W).  Built on first use and rebuilt, at the
        new reach, only when a caller asks for a larger one: a table that
        covers reach is returned as it is.  A MemoryError raises
        SchemaError at grid_h."""
        key = float(kappa)
        tab = self._arc_windows.get(key)
        if tab is not None and tab.reach >= reach:
            return tab
        self._arc_windows.pop(key, None)        # the two tables need not coexist
        try:
            dist, arc = self.distance_maps(reach)
            cells = np.flatnonzero(dist < reach)
            t, arc = dist.ravel()[cells], arc.ravel()[cells]
            del dist                # the grid keeps no full-lattice map
            ring, ring_t = self._ring(cells, t)
            tab = ArcWindows(kappa=key, reach=float(reach), cells=cells.astype(np.int32),
                             t=t, ends=[], ring=ring, ring_t=ring_t)
            del cells
            w = self.boundary().w
            period, breaks = float(w.sum()), np.concatenate([[0.0], np.cumsum(w)])
            hw = tab.half_width(t)
            for end in (np.subtract, np.add):
                s = end(arc, hw)
                wraps = s / period
                np.floor(wraps, out=wraps)
                s -= wraps * period
                idx = np.searchsorted(breaks, s, side="right")
                idx -= 1
                np.clip(idx, 0, len(breaks) - 2, out=idx)
                s -= breaks[idx]
                if wraps.size == 0 or -128 <= wraps.min() <= wraps.max() <= 127:
                    wraps = wraps.astype(np.int8)
                tab.ends.append((idx.astype(np.int32), wraps, s))
        except MemoryError:
            raise self._out_of_memory("arc-window table") from None
        self._arc_windows[key] = tab
        return tab

    def _ring(self, cells, t):
        """ArcWindows.ring and ring_t of the rows cells (sorted flat
        indices) at distances t.  The int32 map from cell to row position
        lives only here, and is smaller than the distance maps."""
        n, nx = len(cells), self.nx
        where = np.full(self.mask.size, n, dtype=np.int32)
        where[cells] = np.arange(n, dtype=np.int32)
        rows = (where != n).reshape(self.mask.shape)
        ring = rows.copy()
        ring[:, :-1] |= rows[:, 1:]
        ring[:-1, :] |= rows[1:, :]
        del rows
        at = np.flatnonzero(ring)
        del ring
        ok = self.neighbor_masks()
        pos = np.empty((3, len(at)), dtype=np.int32)
        where.take(at, out=pos[0])
        t_at = np.append(t, np.inf)             # t by row position, inf at the sentinel
        least = t_at.take(pos[0])
        for k, step in ((1, 1), (2, nx)):
            keep = ok[k - 1].ravel()[at]
            # the lattice neighbor, masked or not, sets the least t: a ring
            # cell counts wherever its neighbor is a layer cell
            nb = at + step
            inside = nb % nx != 0 if step == 1 else nb < self.mask.size
            np.copyto(nb, at, where=~inside)
            np.minimum(least, t_at.take(where.take(nb)), out=least)
            np.copyto(nb, at, where=~keep)
            where.take(nb, out=pos[k])
        return pos, least


@dataclass
class ArcWindows:
    """Arc-window geometry of the boundary-layer extension on one grid, out
    to distance reach from the boundary.

    Its rows are the masked cells closer than reach, in flat lattice order.
    A row at distance t averages the boundary data over the arc window
    arc -+ hw, hw = max(kappa * t, MIN_HALF_WIDTH), from the prefix sums of
    the data over the boundary samples, whose weights w sum to P and end at
    the breaks [0, cumsum(w)].  ends[0] and ends[1] hold, for the window ends
    s = arc - hw and s = arc + hw: the sample j whose breaks bracket
    s - k * P (clipped to a sample), the wrap count k = floor(s / P) (int8,
    or float where a window wraps more than 127 times), and the offset
    s - k * P - breaks[j] into the sample.

    The ring is every cell whose masked forward differences can read a row:
    the rows and the cells whose +x or +y neighbor is one, in lattice order.
    ring[0], ring[1] and ring[2] hold the row positions of the cell and of
    its +x and +y neighbors, len(cells) for a cell that is no row, and the
    cell's own position for a neighbor the neighbor mask drops, whose
    difference is then zero, as in grid._grad; ring_t holds the least t of
    the cell and its two lattice neighbors, masked or not.  A layer of width delta <= reach is nonzero on
    the rows with t < delta only, so its gradient is zero off the ring cells
    with ring_t < delta.
    """

    kappa: float
    reach: float
    cells: np.ndarray      # int32 flat lattice indices of the rows
    t: np.ndarray          # distance to the boundary
    ends: list
    ring: np.ndarray       # (3, m) int32 row positions: cell, +x and +y neighbor
    ring_t: np.ndarray     # least t of the three

    def half_width(self, t):
        hw = self.kappa * t
        return np.maximum(hw, MIN_HALF_WIDTH, out=hw)


@dataclass
class BoundarySamples:
    """Arc-ordered boundary quadrature: sum(w) equals the perimeter; probe
    holds each sample's probe cell as a flat (row-major) lattice index."""

    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    edge_id: np.ndarray
    probe: np.ndarray


class LineDomain:
    """The interval (a, b); boundary is the two endpoints with unit weight.

    Only used for one-dimensional examples (fields on 1 x K masks).
    """

    def __init__(self, a=0.0, b=1.0):
        if not b > a:
            raise SchemaError("interval needs b > a")
        self.a, self.b = float(a), float(b)
        self.perimeter = 2.0
        self.length = self.b - self.a
        self.name = f"interval({a},{b})"


# -- factories and file I/O -----------------------------------------------------


def unit_square() -> PolygonalDomain:
    return PolygonalDomain([[0, 0], [1, 0], [1, 1], [0, 1]], name="square")


def l_shape() -> PolygonalDomain:
    """Hexagon with five right corners and one reentrant (3*pi/2) corner."""
    verts = [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]
    return PolygonalDomain(verts, name="lshape")


def regular_ngon(n=256, radius=1.0) -> PolygonalDomain:
    """Regular n-gon inscribed in a circle of the given radius.  Its n convex
    corners of angle pi - 2 pi/n are real corners: linear(-L) is admissible
    up to L = sigma cos(pi/n), which tends to the disk's sigma as n grows."""
    ang = 2 * math.pi * (np.arange(n) + 0.5) / n
    verts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return PolygonalDomain(verts, name=f"ngon{n}")


BUILTIN_DOMAINS = {
    "square": unit_square,
    "lshape": l_shape,
    "disk256": lambda: regular_ngon(256),
    "disk64": lambda: regular_ngon(64),
}


def builtin_domain(name: str) -> PolygonalDomain:
    try:
        return BUILTIN_DOMAINS[name]()
    except KeyError:
        raise SchemaError(f"unknown builtin domain {name!r}; "
                          f"choose one of {sorted(BUILTIN_DOMAINS)}")


_DOMAIN_KEYS = {"vertices", "name"}


def load_domain(path) -> PolygonalDomain:
    """Load a polygon from JSON: {"vertices": [[x,y],...], optional "name"}.
    Any other key raises SchemaError; angles and the Lipschitz constant are
    computed from the vertices."""
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e.msg}", location=f"line {e.lineno}")
    if not isinstance(data, dict):
        raise SchemaError("domain file must contain a JSON object")
    unknown = set(data) - _DOMAIN_KEYS
    if unknown:
        raise SchemaError(f"unknown domain keys {sorted(unknown)}")
    if "vertices" not in data:
        raise SchemaError("domain file missing 'vertices'")
    return PolygonalDomain(data["vertices"], name=data.get("name"))

