"""Discrete fields on masked lattices: total variation, traces, and energies.

Total variation uses isotropic forward differences, one-sided (zero) where a
forward neighbor leaves the mask; this keeps the TV of axis-aligned indicator
jumps exact up to O(h).  Traces are read by a depth-1 normal probe: each
boundary sample takes the value of the nearest interior cell along the inward
normal, with arc-length quadrature weights from edge subdivision at step <= h.
The resulting error is O(h * local gradient), so piecewise-constant catalog
fields carry analytic jump sets and closed forms alongside the grid values.

One-dimensional fields (1 x K masks on an interval, boundary = two endpoints)
are supported for the logarithmic example only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MaskMismatch, SchemaError
from .density import NEG_SENTINEL, yosida_eval_many
from .geometry import DomainGrid, LineDomain


class LineGrid:
    """1-D analog of DomainGrid: K cells of width h on an interval."""

    def __init__(self, dom: LineDomain, h: float):
        self.dom = dom
        self.h = float(h)
        self.n = max(2, int(round(dom.length / h)))
        self.xs = dom.a + (np.arange(self.n) + 0.5) * self.h
        self.mask = np.ones(self.n, dtype=bool)
        self.cell_area = self.h

    @property
    def is_1d(self):
        return True


def line_grid(a=0.0, b=1.0, n_cells=10_000):
    dom = LineDomain(a, b)
    return LineGrid(dom, dom.length / n_cells)


@dataclass
class GridField:
    """Scalar or vector field sampled at cell centers of a masked lattice.

    values has shape (ny, nx) for M = 1 or (ny, nx, M); entries outside the
    mask are ignored (kept at 0 by the constructors).  jump_set optionally
    carries the analytic jump segments of a piecewise-constant field.
    """

    grid: object                 # DomainGrid or LineGrid
    values: np.ndarray
    jump_set: list | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        want = self.grid.mask.shape
        if self.values.shape[:len(want)] != want:
            raise MaskMismatch(f"values shape {self.values.shape} does not match mask {want}")
        if not np.all(np.isfinite(self.values[self.grid.mask])):
            raise ValueError("field has non-finite values on masked cells")

    @property
    def h(self):
        return self.grid.h

    @property
    def dom(self):
        return self.grid.dom

    @property
    def is_1d(self):
        return getattr(self.grid, "is_1d", False)

    @property
    def value_dim(self):
        extra = self.values.ndim - self.grid.mask.ndim
        return 1 if extra == 0 else self.values.shape[-1]


def field_from_function(grid, fn, vector_dim=None) -> GridField:
    """Sample fn at cell centers.  fn takes (X, Y) arrays for 2-D grids or a
    coordinate array for 1-D grids and must broadcast."""
    if getattr(grid, "is_1d", False):
        vals = np.asarray(fn(grid.xs), dtype=float)
        vals = np.broadcast_to(vals, grid.xs.shape).copy()
    else:
        X, Y = grid.cell_centers()
        vals = np.asarray(fn(X, Y), dtype=float)
        target = X.shape if vector_dim is None else X.shape + (vector_dim,)
        vals = np.broadcast_to(vals, target).copy()
    vals[~grid.mask] = 0.0
    return GridField(grid, vals)


def constant_field(grid, value) -> GridField:
    value = np.asarray(value, dtype=float)
    shape = grid.mask.shape if value.ndim == 0 else grid.mask.shape + value.shape
    vals = np.broadcast_to(value, shape).copy()
    vals[~grid.mask] = 0.0
    return GridField(grid, vals)


# -- differential quantities ---------------------------------------------------------


def _grad(u, h, ok_x, ok_y):
    """Forward differences / h of a (ny, nx) or (ny, nx, M) array, zero where
    the forward neighbor leaves the mask (ok_x, ok_y from
    DomainGrid.neighbor_masks)."""
    dx = np.empty_like(u)
    dy = np.empty_like(u)
    np.subtract(u[:, 1:], u[:, :-1], out=dx[:, :-1])
    dx[:, :-1] /= h
    np.subtract(u[1:, :], u[:-1, :], out=dy[:-1, :])
    dy[:-1, :] /= h
    # the unwritten last column / row is outside ok_x / ok_y
    tail = (1,) * (u.ndim - 2)
    np.copyto(dx, 0.0, where=~ok_x.reshape(ok_x.shape + tail))
    np.copyto(dy, 0.0, where=~ok_y.reshape(ok_y.shape + tail))
    return dx, dy


def _grad_at(u, h, ok_x, ok_y, cells):
    """_grad at the flat lattice indices cells only: the rows cells of
    _grad(u, h, ok_x, ok_y) with the lattice axes flattened, bit for bit,
    as arrays of shape (k,) or (k, M)."""
    n, nx = ok_x.size, ok_x.shape[1]
    flat = u.reshape((n,) + u.shape[2:])
    here = flat[cells]
    okx = ok_x.ravel()[cells]
    oky = ok_y.ravel()[cells]
    # where the neighbor leaves the mask (or the lattice) read the cell itself
    dx = flat[cells + okx]
    dx -= here
    dx /= h
    dx[~okx] = 0.0
    dy = flat[cells + nx * oky]
    dy -= here
    dy /= h
    dy[~oky] = 0.0
    return dx, dy


def _grad_adjoint(xx, yy, h, ok_x, ok_y):
    """Exact adjoint of _grad on scalar fields: <grad u, xi> = <u, adjoint(xi)>."""
    vx = np.where(ok_x, xx, 0.0)
    vy = np.where(ok_y, yy, 0.0)
    out = np.subtract(0.0, vx)         # not np.negative: +0.0 where vx is 0
    out[:, 1:] += vx[:, :-1]
    out -= vy
    out[1:, :] += vy[:-1, :]
    out /= h
    return out


def gradient_magnitude(u: GridField):
    """Per-cell |grad u| (Frobenius norm across value components)."""
    if u.is_1d:
        v = u.values
        d = np.zeros_like(v)
        d[:-1] = (v[1:] - v[:-1]) / u.h
        return np.abs(d)
    dx, dy = _grad(u.values, u.h, *u.grid.neighbor_masks())
    dx *= dx
    dy *= dy
    dx += dy
    if u.value_dim > 1:
        dx = dx.sum(axis=-1)
    return np.sqrt(dx, out=dx)


def tv_grid(u: GridField) -> float:
    """Isotropic discrete total variation sum h^d |grad u| over masked cells."""
    g = gradient_magnitude(u)
    if u.is_1d:
        return float(u.h * g[u.grid.mask].sum())
    return float(u.grid.cell_area * g[u.grid.mask].sum())


def tv_exact_pc(jump_set) -> float:
    """Closed-form TV of a piecewise-constant field: sum length * |jump|.

    jump_set entries are ((x0, y0), (x1, y1), jump_height) with the segment
    inside the domain; vector jumps use the Euclidean norm.
    """
    total = 0.0
    for a, b, jump in jump_set:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        total += float(np.hypot(*(b - a))) * float(np.linalg.norm(np.atleast_1d(jump)))
    return total


# -- traces ---------------------------------------------------------------------------


@dataclass
class TraceSample:
    """Boundary values with quadrature: sum(w) = perimeter up to O(h).

    values holds the trace at each sample (shape (n,) or (n, M)); s is the
    arc-length position, normal the outward unit normal, edge_id the polygon
    edge index.  Samples are arc-ordered.
    """

    s: np.ndarray
    x: np.ndarray
    normal: np.ndarray
    w: np.ndarray
    values: np.ndarray
    edge_id: np.ndarray
    perimeter: float
    dom: object = None

    def __len__(self):
        return len(self.s)

    def abs_integral(self) -> float:
        v = np.abs(self.values) if self.values.ndim == 1 \
            else np.sqrt((self.values ** 2).sum(axis=-1))
        return float((self.w * v).sum())

    def map_values(self, fn):
        return TraceSample(self.s, self.x, self.normal, self.w, fn(self.values),
                           self.edge_id, self.perimeter, self.dom)


def trace_extract(u: GridField) -> TraceSample:
    """Boundary trace by depth-1 normal probe into the nearest interior cell."""
    if u.is_1d:
        g = u.grid
        ends = np.array([g.dom.a, g.dom.b])
        vals = np.array([u.values[0], u.values[-1]])
        return TraceSample(s=ends, x=ends[:, None], normal=np.array([[-1.0], [1.0]]),
                           w=np.ones(2), values=vals, edge_id=np.array([0, 1]),
                           perimeter=2.0, dom=g.dom)
    b = u.grid.boundary()
    vals = u.values[b.probe_iy, b.probe_ix]
    return TraceSample(s=b.s, x=b.x, normal=b.normal, w=b.w, values=vals,
                       edge_id=b.edge_id, perimeter=b.perimeter, dom=u.dom)


def boundary_trace_from_function(grid, fn) -> TraceSample:
    """TraceSample of an analytic boundary function fn(x, y) on the grid's
    boundary quadrature."""
    b = grid.boundary()
    vals = np.asarray(fn(b.x[:, 0], b.x[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, b.s.shape).copy()
    return TraceSample(s=b.s, x=b.x, normal=b.normal, w=b.w, values=vals,
                       edge_id=b.edge_id, perimeter=b.perimeter, dom=grid.dom)


# -- energies ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Decomposed energy: total = tv_term + contact_term + bulk_term exactly."""

    tv_term: float
    contact_term: float
    bulk_term: float
    per_edge: dict = field(default_factory=dict)
    validity: str = "grid_estimate"
    notes: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.tv_term + self.contact_term + self.bulk_term

    def to_dict(self):
        return {"tv_term": self.tv_term, "contact_term": self.contact_term,
                "bulk_term": self.bulk_term, "total": self.total,
                "per_edge": {str(k): v for k, v in self.per_edge.items()},
                "validity": self.validity, "notes": self.notes}


def _contact_integral(trace: TraceSample, evaluate) -> tuple[float, dict, bool]:
    """sum w_i * evaluate(x_i, value_i), grouped per edge.  evaluate is called
    once per edge with vectorized values (densities are continuous in x at
    the sample scale, so the edge's first sample point represents it).  The
    third return flags values at the negative clamping sentinel."""
    per_edge = {}
    total = 0.0
    clamped = False
    for e in np.unique(trace.edge_id):
        sel = trace.edge_id == e
        x_rep = trace.x[np.argmax(sel)]
        vals = np.asarray(evaluate(x_rep, trace.values[sel]), dtype=float)
        if np.any(vals <= 0.9 * NEG_SENTINEL):
            clamped = True
        contrib = float((trace.w[sel] * vals).sum())
        per_edge[int(e)] = contrib
        total += contrib
    return total, per_edge, clamped


def _energy(u: GridField, sigma, evaluate, jumps, exact_trace) -> EnergyReport:
    """sigma * TV(u) + sum_bd w * evaluate(x, Tr u); see energy_F for the
    exact-term arguments."""
    tv = tv_exact_pc(jumps) if jumps is not None else tv_grid(u)
    trace = exact_trace if exact_trace is not None else trace_extract(u)
    validity = ("exact_closed_form" if jumps is not None and exact_trace is not None
                else "grid_estimate")
    contact, per_edge, clamped = _contact_integral(trace, evaluate)
    notes = {"sentinel_clamped": True} if clamped else {}
    return EnergyReport(tv_term=sigma * tv, contact_term=contact, bulk_term=0.0,
                        per_edge=per_edge, validity=validity, notes=notes)


def energy_F(u: GridField, d, sigma: float, exact_jump_set=None,
             exact_trace: TraceSample | None = None) -> EnergyReport:
    """Contact energy  sigma * TV(u) + int_bd tau(x, Tr u).

    Grid estimate by default; an analytic jump set replaces the TV term and an
    analytic trace sample replaces the probe, in which case the report is
    flagged exact_closed_form.  A jump set attached to the field is data, not
    a default: exact terms enter only through the explicit arguments.
    """
    return _energy(u, sigma, d.eval_many, exact_jump_set, exact_trace)


def energy_H(u: GridField, d, ctx, exact_jump_set=None,
             exact_trace: TraceSample | None = None) -> EnergyReport:
    """Transformed energy  sigma * TV(u) + int_bd tau_hat(x, Tr u)."""
    return _energy(u, ctx.sigma, lambda x, v: yosida_eval_many(d, ctx, x, v),
                   exact_jump_set, exact_trace)


def energy_capillarity(u: GridField, nu: float) -> EnergyReport:
    """Capillary energy  int sqrt(1 + |grad u|^2) + int u^2 + nu * int_bd Tr u."""
    if u.value_dim != 1:
        raise ValueError("capillary energy is defined for scalar fields")
    g = gradient_magnitude(u)
    m = u.grid.mask
    area_term = float(u.grid.cell_area * np.sqrt(1.0 + g[m] ** 2).sum())
    bulk = float(u.grid.cell_area * (u.values[m] ** 2).sum())
    trace = trace_extract(u)
    contact, per_edge, _ = _contact_integral(trace, lambda x, v: nu * v)
    return EnergyReport(tv_term=area_term, contact_term=contact, bulk_term=bulk,
                        per_edge=per_edge, validity="grid_estimate",
                        notes={"nu": nu, "tv_term_is_area_functional": True})


def l1_distance(u: GridField, v: GridField) -> float:
    """L1 distance  sum h^d |u - v|  over the (shared) mask."""
    if u.grid is not v.grid:
        same = (u.h == v.h and u.grid.mask.shape == v.grid.mask.shape
                and np.array_equal(u.grid.mask, v.grid.mask))
        if not same:
            raise MaskMismatch("fields live on different grids")
    diff = u.values - v.values
    if u.value_dim > 1:
        diff = np.sqrt((diff ** 2).sum(axis=-1))
    cell = u.grid.cell_area
    return float(cell * np.abs(diff[u.grid.mask]).sum())


def l1_norm(u: GridField) -> float:
    vals = u.values if u.value_dim == 1 else np.sqrt((u.values ** 2).sum(axis=-1))
    return float(u.grid.cell_area * np.abs(vals[u.grid.mask]).sum())


# -- field I/O ---------------------------------------------------------------------------


def _mask_rle(mask):
    flat = mask.ravel()
    changes = np.flatnonzero(np.diff(flat.astype(np.int8))) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    return {"first": bool(flat[0]), "runs": np.diff(bounds).tolist()}


def _mask_from_rle(rle, shape):
    runs = rle["runs"]
    vals = []
    cur = bool(rle["first"])
    for r in runs:
        vals.append(np.full(r, cur, dtype=bool))
        cur = not cur
    return np.concatenate(vals).reshape(shape)


def save_field(u: GridField, basepath):
    """Write <base>.json (h, mask RLE, M, shape) + <base>.f64 (raw doubles)."""
    base = str(basepath)
    header = {
        "h": u.h,
        "shape": list(u.values.shape),
        "M": u.value_dim,
        "mask_rle": _mask_rle(u.grid.mask),
        "is_1d": bool(u.is_1d),
    }
    with open(base + ".json", "w") as f:
        json.dump(header, f)
    u.values.astype("<f8").tofile(base + ".f64")


def load_field(basepath, grid=None) -> GridField:
    """Read a field saved by save_field; a matching grid must be supplied (the
    header's h/shape/mask are validated against it)."""
    base = str(basepath)
    with open(base + ".json") as f:
        header = json.load(f)
    values = np.fromfile(base + ".f64", dtype="<f8").reshape(header["shape"])
    if grid is None:
        raise SchemaError("load_field needs the grid the field was sampled on")
    if abs(grid.h - header["h"]) > 1e-12 * header["h"]:
        raise SchemaError(f"grid h {grid.h} does not match stored {header['h']}")
    mask = _mask_from_rle(header["mask_rle"], grid.mask.shape)
    if not np.array_equal(mask, grid.mask):
        raise SchemaError("stored mask does not match the supplied grid")
    return GridField(grid, values)
