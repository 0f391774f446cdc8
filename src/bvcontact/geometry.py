"""Planar polygonal domains, corner trace constants, and admissibility checks.

The geometric quantity of interest is the local trace constant q(x): it is 1
at flat boundary points and 1/sin(theta/2) at a convex corner of interior
angle theta, equivalently sqrt(1 + l^2) for the wedge {x2 > l|x1|} with
l = cot(theta/2) > 0.  Reentrant corners (theta >= pi) contribute 1.  The
global constant Q is the sup over the boundary and enters the trace
inequality  int_{bd} |Tr u| <= (Q + eps) TV(u) + C int |u|.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError

ANGLE_TOL = 1e-9
FLAT_TOL = 1e-12
#: PolygonalDomain's simplicity check tests edge pairs in blocks of rows of
#: about this many pairs, so its temporaries stay bounded for large polygons
SIMPLE_CHECK_PAIRS = 1 << 16


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
    set of the boundary; everything else is flat.  A fine regular polygon
    can stand in for a smooth domain by setting ``smooth`` - the flag, not
    the discrete geometry, is what selects smooth-boundary behavior in the
    admissibility check.
    """

    def __init__(self, vertices, smooth=False, angle_overrides=None,
                 lipschitz_constant=None, name=None):
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
        self.smooth = bool(smooth)
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

        overrides = dict(angle_overrides or {})
        self.interior_angles = np.array(
            [overrides.get(i, self._interior_angle(i)) for i in range(self.n)])
        for i, th in enumerate(self.interior_angles):
            if not (ANGLE_TOL < th < 2 * math.pi - ANGLE_TOL):
                raise SchemaError(f"cusp or invalid interior angle {th}", location=f"vertex {i}")
        self.corner_records = [
            CornerRecord(i, float(th), (1.0 / math.tan(th / 2.0)) if th < math.pi - FLAT_TOL else None)
            for i, th in enumerate(self.interior_angles)
            if abs(th - math.pi) > 1e-9
        ]
        if lipschitz_constant is not None:
            self.lipschitz_constant = float(lipschitz_constant)
        else:
            slopes = [abs(math.cos(th / 2.0) / math.sin(th / 2.0)) for th in self.interior_angles]
            self.lipschitz_constant = max(slopes) if slopes else 0.0
        self._grids = {}

    # -- construction helpers -------------------------------------------------

    def _interior_angle(self, i):
        v = self.vertices
        prev = v[i] - v[i - 1]
        nxt = v[(i + 1) % self.n] - v[i]
        turn = math.atan2(prev[0] * nxt[1] - prev[1] * nxt[0], prev[0] * nxt[0] + prev[1] * nxt[1])
        return math.pi - turn

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

    def contains(self, points):
        """Vectorized crossing-number test; True strictly inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.zeros(len(pts), dtype=bool)
        v = self.vertices
        for i in range(self.n):
            cond, xint = _crossings(v[i], v[(i + 1) % self.n], pts[:, 1])
            inside ^= cond & (pts[:, 0] < xint)
        return inside

    def _edge_distance(self, i, pts):
        """Distance from pts to edge i and the arc position of the nearest point."""
        a = self.vertices[i]
        d = self.vertices[(i + 1) % self.n] - a
        t = np.clip(((pts - a) @ d) / (d @ d), 0.0, 1.0)
        proj = a + t[:, None] * d
        dist = np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])
        return dist, self.arc_offsets[i] + t * self.edge_lengths[i]

    def boundary_distance(self, points):
        """Distance to the boundary, nearest arc position, and edge index."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        best_d = np.full(len(pts), np.inf)
        best_s = np.zeros(len(pts))
        best_e = np.zeros(len(pts), dtype=int)
        for i in range(self.n):
            dist, arc = self._edge_distance(i, pts)
            upd = dist < best_d
            best_d[upd] = dist[upd]
            best_s[upd] = arc[upd]
            best_e[upd] = i
        return best_d, best_s, best_e

    def boundary_point(self, s):
        """Boundary point at arc-length position s (wraps around)."""
        s = np.asarray(s, dtype=float) % self.perimeter
        idx = np.clip(np.searchsorted(self.arc_offsets, s, side="right") - 1, 0, self.n - 1)
        t = (s - self.arc_offsets[idx]) / self.edge_lengths[idx]
        a = self.vertices[idx]
        b = self.vertices[(idx + 1) % self.n]
        return a + t[..., None] * (b - a)

    def grid(self, h):
        """Cached discretization geometry at spacing h."""
        key = round(float(h), 14)
        if key not in self._grids:
            self._grids[key] = DomainGrid(self, float(h))
        return self._grids[key]


def _crossings(a, b, y):
    """Where the edges a -> b cross the horizontal line(s) y: which edges
    straddle y (half-open in y, so a vertex counts once) and the abscissa."""
    cond = (a[..., 1] > y) != (b[..., 1] > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = a[..., 0] + (y - a[..., 1]) * (b[..., 0] - a[..., 0]) / (b[..., 1] - a[..., 1])
    return cond, xint


def domain_Q(dom: PolygonalDomain) -> float:
    """Global trace constant: sup of the local constant over the boundary."""
    q = 1.0
    for rec in dom.corner_records:
        q = max(q, rec.q)
    return q


@dataclass
class AdmissibilityReport:
    """Pointwise products L(x) q(x) along the boundary and the verdict.

    verdict is one of 'C2_clause' (smooth-flagged domain with sup L <= sigma),
    'almost_C1_clause' (slack (1-2*eps0)*sigma - L*q >= 0 everywhere), or
    'inadmissible'.
    """

    per_point: list
    verdict: str
    epsilon0: float
    sigma: float
    min_slack: float
    sup_L: float

    @property
    def admissible(self) -> bool:
        return self.verdict in ("C2_clause", "almost_C1_clause")


def admissibility_check(dom: PolygonalDomain, density, sigma: float,
                        epsilon0: float) -> AdmissibilityReport:
    """Check L(x) q(x) <= (1 - 2*eps0) * sigma along the boundary.

    L is taken from the density's declared slope bound, sampled along every
    edge at arc resolution <= shortest_edge/16 (where q = 1) and at every
    vertex (where q = corner_q of the interior angle).  Smooth-flagged
    domains with sup L <= sigma short-circuit to the C2 clause.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if epsilon0 < 0:
        raise ValueError("epsilon0 must be nonnegative")
    step = dom.shortest_edge / 16.0
    per_point = []
    bound = (1.0 - 2.0 * epsilon0) * sigma
    sup_L = 0.0
    min_slack = math.inf
    for i in range(dom.n):
        a = dom.vertices[i]
        b = dom.vertices[(i + 1) % dom.n]
        length = dom.edge_lengths[i]
        k = max(1, int(math.ceil(length / step)))
        ts = (np.arange(k) + 0.5) / k
        pts = a + ts[:, None] * (b - a)
        qs = np.ones(k)
        xs = list(pts) + [a]
        qvals = list(qs) + [corner_q(dom.interior_angles[i])]
        for x, q in zip(xs, qvals):
            Lx = float(density.L_at(x))
            slack = bound - Lx * q
            sup_L = max(sup_L, Lx)
            min_slack = min(min_slack, slack)
            per_point.append({"x": (float(x[0]), float(x[1])), "L": Lx, "q": float(q),
                              "Lq": Lx * float(q), "slack": float(slack)})
    if dom.smooth and sup_L <= sigma + 1e-12:
        verdict = "C2_clause"
    elif min_slack >= -1e-12 and epsilon0 >= 0:
        verdict = "almost_C1_clause"
    else:
        verdict = "inadmissible"
    return AdmissibilityReport(per_point=per_point, verdict=verdict, epsilon0=epsilon0,
                               sigma=sigma, min_slack=float(min_slack), sup_L=float(sup_L))


def emmer_check(nu: float, dom: PolygonalDomain) -> dict:
    """Capillarity existence bound |nu| < 1/sqrt(1 + Lip(boundary)^2)."""
    bound = 1.0 / math.sqrt(1.0 + dom.lipschitz_constant ** 2)
    return {"passes": bool(abs(nu) < bound), "bound": bound,
            "nu": float(nu), "lipschitz_constant": dom.lipschitz_constant}


class DomainGrid:
    """Masked-lattice discretization of a polygon at spacing h.

    Holds everything that depends only on (domain, h): the cell mask, cell
    centers, boundary samples with arc positions / outward normals / probe
    cells, and (lazily) the distance and nearest-arc maps used by the
    extension, which are inf/0 outside the band of width W = dom.band_width.
    """

    def __init__(self, dom: PolygonalDomain, h: float):
        if h <= 0:
            raise ValueError("h must be positive")
        self.dom = dom
        self.h = h
        v = dom.vertices
        x0, y0 = v[:, 0].min(), v[:, 1].min()
        x1, y1 = v[:, 0].max(), v[:, 1].max()
        nx = max(1, int(round((x1 - x0) / h)))
        ny = max(1, int(round((y1 - y0) / h)))
        # snap the lattice so the bounding box is covered
        if x0 + nx * h < x1 - 1e-12 * h:
            nx += 1
        if y0 + ny * h < y1 - 1e-12 * h:
            ny += 1
        self.origin = (float(x0), float(y0))
        self.nx, self.ny = nx, ny
        xs = x0 + (np.arange(nx) + 0.5) * h
        ys = y0 + (np.arange(ny) + 0.5) * h
        self.xs, self.ys = xs, ys
        # scanlines: inside when an odd number of the row's crossings lie right of it
        cond, xint = _crossings(v, np.roll(v, -1, axis=0), ys[:, None])
        self.mask = np.empty((ny, nx), dtype=bool)
        for j in range(ny):
            row = np.sort(xint[j, cond[j]])
            self.mask[j] = (len(row) - np.searchsorted(row, xs, side="right")) % 2 == 1
        self.cell_area = h * h
        self._boundary = None
        self._dist_maps = None
        self._neighbors = None

    @property
    def n_cells(self):
        return int(self.mask.sum())

    def cell_centers(self):
        X, Y = np.meshgrid(self.xs, self.ys)
        return X, Y

    def neighbor_masks(self):
        """(ok_x, ok_y), built once: masked cells whose forward x / y
        neighbor is masked too; the masked gradient is zero elsewhere."""
        if self._neighbors is None:
            m = self.mask
            ok_x = m.copy()
            ok_x[:, :-1] &= m[:, 1:]
            ok_x[:, -1] = False
            ok_y = m.copy()
            ok_y[:-1, :] &= m[1:, :]
            ok_y[-1, :] = False
            self._neighbors = (ok_x, ok_y)
        return self._neighbors

    # -- boundary sampling -----------------------------------------------------

    def boundary(self):
        """Boundary sample table (built once): arc positions, weights, normals,
        closest edge ids, and the interior probe cell for each sample."""
        if self._boundary is None:
            self._boundary = self._build_boundary()
        return self._boundary

    def _build_boundary(self):
        dom, h = self.dom, self.h
        ss, ws, eids = [], [], []
        for i in range(dom.n):
            length = dom.edge_lengths[i]
            k = max(1, int(math.ceil(length / h)))
            t = (np.arange(k) + 0.5) / k
            ss.append(dom.arc_offsets[i] + t * length)
            ws.append(np.full(k, length / k))
            eids.append(np.full(k, i, dtype=int))
        s = np.concatenate(ss)
        w = np.concatenate(ws)
        eid = np.concatenate(eids)
        x = self.dom.boundary_point(s)
        normal = dom.edge_normals[eid]
        iy, ix = self._probe_cells(x, normal)
        return BoundarySamples(s=s, x=x, w=w, edge_id=eid, normal=normal,
                               probe_iy=iy, probe_ix=ix, perimeter=dom.perimeter)

    def _probe_cells(self, x, normal):
        h = self.h
        n = len(x)
        iy = np.full(n, -1, dtype=int)
        ix = np.full(n, -1, dtype=int)
        todo = np.ones(n, dtype=bool)
        for depth in np.arange(0.5, 6.01, 0.5):
            if not todo.any():
                break
            probe = x[todo] - depth * h * normal[todo]
            jx = np.floor((probe[:, 0] - self.origin[0]) / h).astype(int)
            jy = np.floor((probe[:, 1] - self.origin[1]) / h).astype(int)
            ok = (jx >= 0) & (jx < self.nx) & (jy >= 0) & (jy < self.ny)
            ok[ok] &= self.mask[jy[ok], jx[ok]]
            idx = np.flatnonzero(todo)[ok]
            iy[idx] = jy[ok]
            ix[idx] = jx[ok]
            todo[idx] = False
        if todo.any():
            # fall back to the globally nearest masked cell
            my, mx = np.nonzero(self.mask)
            cx = self.origin[0] + (mx + 0.5) * h
            cy = self.origin[1] + (my + 0.5) * h
            for j in np.flatnonzero(todo):
                d2 = (cx - x[j, 0]) ** 2 + (cy - x[j, 1]) ** 2
                k = int(np.argmin(d2))
                iy[j], ix[j] = my[k], mx[k]
        return iy, ix

    # -- interior distance/arc maps (for the extension) -------------------------

    def distance_maps(self):
        """(dist, arc) arrays over the full lattice: exact for masked cells
        closer than W = dom.band_width to the boundary, inf/0 outside that
        band.  Each edge is evaluated only on the cells of its bounding box
        grown by W (and two cells); nearer edges win in edge order."""
        if self._dist_maps is None:
            dom, h = self.dom, self.h
            d, s = np.full((self.ny, self.nx), np.inf), np.zeros((self.ny, self.nx))
            a, b = dom.vertices, np.roll(dom.vertices, -1, axis=0)
            grow = dom.band_width + 2 * h
            lo = np.floor((np.minimum(a, b) - grow - self.origin) / h).astype(int)
            hi = np.ceil((np.maximum(a, b) + grow - self.origin) / h).astype(int)
            lo, hi = np.maximum(lo, 0), np.minimum(hi, (self.nx, self.ny))
            for i in range(dom.n):
                box = np.s_[lo[i, 1]:hi[i, 1], lo[i, 0]:hi[i, 0]]
                X, Y = np.meshgrid(self.xs[box[1]], self.ys[box[0]])
                dist, arc = dom._edge_distance(i, np.column_stack([X.ravel(), Y.ravel()]))
                dist, arc = dist.reshape(X.shape), arc.reshape(X.shape)
                upd = dist < d[box]
                d[box][upd] = dist[upd]
                s[box][upd] = arc[upd]
            band = self.mask & (d < dom.band_width)
            self._dist_maps = (np.where(band, d, np.inf), np.where(band, s, 0.0))
        return self._dist_maps


@dataclass
class BoundarySamples:
    """Arc-ordered boundary quadrature: sum(w) equals the perimeter."""

    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    edge_id: np.ndarray
    normal: np.ndarray
    probe_iy: np.ndarray
    probe_ix: np.ndarray
    perimeter: float

    def __len__(self):
        return len(self.s)


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
        self.smooth = False
        self.name = f"interval({a},{b})"


# -- factories and file I/O -----------------------------------------------------


def unit_square() -> PolygonalDomain:
    return PolygonalDomain([[0, 0], [1, 0], [1, 1], [0, 1]], name="square")


def l_shape() -> PolygonalDomain:
    """Hexagon with five right corners and one reentrant (3*pi/2) corner."""
    verts = [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]
    return PolygonalDomain(verts, name="lshape")


def regular_ngon(n=256, radius=1.0, smooth=True) -> PolygonalDomain:
    """Regular n-gon inscribed in a circle; smooth=True marks it as a
    smooth-boundary surrogate (the flag drives the C2 admissibility clause)."""
    ang = 2 * math.pi * (np.arange(n) + 0.5) / n
    verts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return PolygonalDomain(verts, smooth=smooth, name=f"ngon{n}")


_BUILTIN_DOMAINS = {
    "square": unit_square,
    "lshape": l_shape,
    "disk256": lambda: regular_ngon(256),
    "disk64": lambda: regular_ngon(64),
}


def builtin_domain(name: str) -> PolygonalDomain:
    try:
        return _BUILTIN_DOMAINS[name]()
    except KeyError:
        raise SchemaError(f"unknown builtin domain {name!r}; "
                          f"choose one of {sorted(_BUILTIN_DOMAINS)}")


_DOMAIN_KEYS = {"vertices", "smooth_flag", "smooth_n", "angle_overrides",
                "lipschitz_constant", "name"}


def load_domain(path) -> PolygonalDomain:
    """Load a polygon from JSON: {"vertices": [[x,y],...], "smooth_flag": bool,
    optional "angle_overrides": {"i": theta}, optional "lipschitz_constant"}.
    A "smooth_n" key is accepted and ignored."""
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
    overrides = None
    if "angle_overrides" in data:
        try:
            overrides = {int(k): float(v) for k, v in data["angle_overrides"].items()}
        except (TypeError, ValueError, AttributeError):
            raise SchemaError("angle_overrides must map vertex index to angle",
                              location="angle_overrides")
    return PolygonalDomain(
        data["vertices"],
        smooth=bool(data.get("smooth_flag", False)),
        angle_overrides=overrides,
        lipschitz_constant=data.get("lipschitz_constant"),
        name=data.get("name"),
    )


def save_domain(dom: PolygonalDomain, path):
    data = {"vertices": dom.vertices.tolist(), "smooth_flag": dom.smooth}
    if dom.name:
        data["name"] = dom.name
    with open(path, "w") as f:
        json.dump(data, f, indent=1)
