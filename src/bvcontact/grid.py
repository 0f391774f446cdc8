"""Discrete fields on masked lattices: total variation, traces, and energies.

Total variation uses isotropic forward differences, one-sided (zero) where a
forward neighbor leaves the mask; this keeps the TV of axis-aligned indicator
jumps exact up to O(h).  The gradient and its adjoint are contiguous shifts
of the flattened (row-major) lattice, by one cell for x and by one row for y.
The x shift also pairs each row's last cell with the next row's first; the x
neighbor mask ok[0] is False at row ends, so those pairs are zeroed as any
pair leaving the mask is.
Differences are scaled by one multiply with 1/h: that is x / h exactly where h
is a power of two, and within one ulp of it otherwise.

Traces are read by a depth-1 normal probe: each boundary sample takes the
value of the nearest interior cell along the inward normal, with arc-length
quadrature weights from edge subdivision at step <= h.  The resulting error
is O(h * local gradient), so piecewise-constant catalog members carry
analytic jump sets and closed forms alongside the grid values.

The interval is a 1 x K lattice (LineGrid) whose boundary is its two
endpoints; it serves the logarithmic example only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import MaskMismatch, SchemaError
from .density import NEG_SENTINEL, yosida_eval_many
from .geometry import BoundarySamples, LineDomain


class LineGrid:
    """The interval tiled by K = round(length / h) >= 2 equal cells, as a
    1 x K lattice on the line y = 0, answering what the grid functions ask of
    a DomainGrid: no y neighbours, and a boundary of the two endpoints with
    unit weight each, probing the end cells."""

    def __init__(self, dom: LineDomain, h: float):
        # the cap of DomainGrid, checked before allocating (a tiny h gives inf)
        if not dom.length / h <= 2.0 ** 31:
            raise SchemaError(f"h = {h:.4g} could give {dom.name} more than 2^31 grid cells",
                              location="grid_h")
        n = max(2, int(round(dom.length / h)))
        self.dom = dom
        self.h = dom.length / n
        self.xs = dom.a + (np.arange(n) + 0.5) * self.h
        self.ys = np.zeros(1)
        self.mask = np.ones((1, n), dtype=bool)
        self.cell_area = self.h

    def cell_centers(self):
        return np.meshgrid(self.xs, self.ys)

    def neighbor_masks(self):
        ok = np.zeros((2,) + self.mask.shape, dtype=bool)
        ok[0, :, :-1] = True
        return ok

    def boundary(self):
        ends = np.array([self.dom.a, self.dom.b])
        return BoundarySamples(s=ends, x=np.column_stack([ends, np.zeros(2)]), w=np.ones(2),
                               edge_id=np.array([0, 1]), probe=np.array([0, len(self.xs) - 1]))


@dataclass
class GridField:
    """Scalar field sampled at cell centers of a masked lattice.

    values has the mask's shape (ny, nx), exactly: a component axis raises
    MaskMismatch.  Entries outside the mask are ignored (kept at 0 by the
    constructors).
    """

    grid: object                 # DomainGrid or LineGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        want = self.grid.mask.shape
        if self.values.shape != want:
            raise MaskMismatch(f"values shape {self.values.shape} does not match mask {want}")
        if not np.all(np.isfinite(self.values[self.grid.mask])):
            raise ValueError("field has non-finite values on masked cells")

    @classmethod
    def from_checked(cls, grid, values):
        """A field over values the caller built as a float array of the
        lattice's shape and checked finite on the mask: no __post_init__
        pass over the mask."""
        u = cls.__new__(cls)
        u.grid, u.values = grid, values
        return u

    @property
    def h(self):
        return self.grid.h

    @property
    def dom(self):
        return self.grid.dom


def field_from_function(grid, fn) -> GridField:
    """Sample fn at cell centers.  fn takes the (X, Y) arrays of the cell
    centers and must broadcast to their shape."""
    X, Y = grid.cell_centers()
    vals = np.asarray(fn(X, Y), dtype=float)
    vals = np.broadcast_to(vals, X.shape).copy()
    vals[~grid.mask] = 0.0
    return GridField(grid, vals)


def constant_field(grid, value) -> GridField:
    vals = np.full(grid.mask.shape, float(value))
    vals[~grid.mask] = 0.0
    return GridField(grid, vals)


# -- differential quantities ---------------------------------------------------------


def _grad(u, h, ok):
    """Forward differences times 1/h of a scalar (ny, nx) array as one
    (2, ny, nx) array, x then y, zero where the forward neighbor leaves the
    mask (ok from DomainGrid.neighbor_masks).

    Both differences are shifts of the flattened lattice, by one cell and by
    one row; the output is C-ordered whatever u's layout."""
    nx = ok.shape[2]
    flat = u.reshape(-1)
    g = np.empty(ok.shape)
    fx = g[0].reshape(-1)
    fy = g[1].reshape(-1)
    inv_h = 1.0 / h
    # values off the mask are ignored, inf - inf among them included
    with np.errstate(invalid="ignore"):
        np.subtract(flat[1:], flat[:-1], out=fx[:-1])
        np.subtract(flat[nx:], flat[:-nx], out=fy[:-nx])
    fx[:-1] *= inv_h
    fy[:-nx] *= inv_h
    # the unwritten last cell / row and the pairs across row ends lie
    # outside ok
    np.copyto(g, 0.0, where=~ok)
    return g


def _grad_adjoint(xi, h, ok):
    """Exact adjoint of _grad on scalar fields: <grad u, xi> = <u, adjoint(xi)>
    for xi of shape (2, ny, nx).

    The same flat shifts as _grad, then one multiply by 1/h: the x shift
    carries each row's last cell into the next row's first, where the x part
    of xi is zeroed (ok[0] is False at row ends)."""
    nx = ok.shape[2]
    v = np.where(ok, xi, 0.0)
    vx = v[0].reshape(-1)
    vy = v[1].reshape(-1)
    out = np.subtract(0.0, vx)         # not np.negative: +0.0 where vx is 0
    out[1:] += vx[:-1]
    out -= vy
    out[nx:] += vy[:-nx]
    out *= 1.0 / h
    return out.reshape(ok.shape[1:])


def gradient_magnitude(u: GridField):
    """Per-cell |grad u| of a scalar field."""
    g = _grad(u.values, u.h, u.grid.neighbor_masks())
    g *= g
    mag = np.add(g[0], g[1])
    return np.sqrt(mag, out=mag)


def tv_grid(u: GridField) -> float:
    """Isotropic discrete total variation sum h^d |grad u| over masked cells."""
    g = gradient_magnitude(u)
    return float(u.grid.cell_area * g[u.grid.mask].sum())


def tv_exact_pc(jump_set) -> float:
    """Closed-form TV of a scalar piecewise-constant field: sum length * |jump|.

    jump_set entries are ((x0, y0), (x1, y1), jump_height) with the segment
    inside the domain.
    """
    total = 0.0
    for a, b, jump in jump_set:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        total += float(np.hypot(*(b - a))) * abs(float(jump))
    return total


# -- traces ---------------------------------------------------------------------------


@dataclass
class TraceSample:
    """Scalar boundary values with quadrature: sum(w) = perimeter up to O(h).

    values holds the trace at each sample (shape (n,)); s is the
    arc-length position, edge_id the polygon edge index.  Samples are
    arc-ordered.  grid is the grid whose boundary samples these are, and
    grid.dom their domain; an exact trace sampled on no grid has None.
    """

    s: np.ndarray
    x: np.ndarray
    w: np.ndarray
    values: np.ndarray
    edge_id: np.ndarray
    grid: object = None

    def abs_integral(self) -> float:
        return float((self.w * np.abs(self.values)).sum())

    def map_values(self, fn):
        return TraceSample(self.s, self.x, self.w, fn(self.values), self.edge_id, self.grid)


def trace_extract(u: GridField) -> TraceSample:
    """Boundary trace by depth-1 normal probe into the nearest interior cell."""
    b = u.grid.boundary()
    vals = u.values.reshape(-1)[b.probe]
    return TraceSample(s=b.s, x=b.x, w=b.w, values=vals, edge_id=b.edge_id, grid=u.grid)


def boundary_trace_from_function(grid, fn) -> TraceSample:
    """TraceSample of an analytic boundary function fn(x, y) on the grid's
    boundary quadrature."""
    b = grid.boundary()
    vals = np.asarray(fn(b.x[:, 0], b.x[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, b.s.shape).copy()
    return TraceSample(s=b.s, x=b.x, w=b.w, values=vals, edge_id=b.edge_id, grid=grid)


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
    """sum w_i * evaluate(x_i, value_i), each sample at its own point, as
    the sum of its per-edge sums, and those sums.  evaluate is called once,
    with the samples' points (n, 2) and values.  The third return flags
    values at the negative clamping sentinel."""
    vals = np.asarray(evaluate(trace.x, trace.values), dtype=float)
    edges, at = np.unique(trace.edge_id, return_inverse=True)
    sums = np.bincount(at, weights=trace.w * vals, minlength=len(edges))
    per_edge = dict(zip(edges.tolist(), sums.tolist()))
    return float(sums.sum()), per_edge, bool(np.any(vals <= 0.9 * NEG_SENTINEL))


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
    cell = u.grid.cell_area
    return float(cell * np.abs(diff[u.grid.mask]).sum())


def l1_norm(u: GridField) -> float:
    return float(u.grid.cell_area * np.abs(u.values[u.grid.mask]).sum())


# -- field I/O ---------------------------------------------------------------------------


def _mask_rle(mask):
    flat = mask.ravel()
    changes = np.flatnonzero(np.diff(flat.astype(np.int8))) + 1
    bounds = np.concatenate([[0], changes, [flat.size]])
    return {"first": bool(flat[0]), "runs": np.diff(bounds).tolist()}


def save_field(u: GridField, basepath):
    """Write <base>.json (h, mask RLE, M, shape) + <base>.f64 (raw doubles)."""
    base = str(basepath)
    header = {
        "h": u.h,
        "shape": list(u.values.shape),
        "M": 1,
        "mask_rle": _mask_rle(u.grid.mask),
    }
    with open(base + ".json", "w") as f:
        json.dump(header, f)
    u.values.astype("<f8").tofile(base + ".f64")


def load_field(basepath, grid) -> GridField:
    """Read a field saved by save_field on the grid it was sampled on.

    The header must hold h, shape, M and mask_rle; M must be 1, h the
    grid's h, shape the mask's shape and mask_rle the grid's mask as
    save_field writes it, and the .f64 file must hold one double per
    lattice cell, finite on the mask.  Anything else raises SchemaError."""
    base = str(basepath)
    with open(base + ".json") as f:
        try:
            header = json.load(f)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid field header JSON: {e.msg}") from None
    keys = ("h", "shape", "M", "mask_rle")
    if not isinstance(header, dict) or not set(keys) <= set(header):
        raise SchemaError(f"the field header needs the keys {', '.join(keys)}")
    if header["M"] != 1:
        raise SchemaError(f"fields are scalar, so M must be 1, not {header['M']!r}")
    h = header["h"]
    if not isinstance(h, (int, float)) or abs(grid.h - h) > 1e-12 * h:
        raise SchemaError(f"grid h {grid.h} does not match stored {h!r}")
    if header["shape"] != list(grid.mask.shape):
        raise SchemaError(f"stored shape {header['shape']!r} is not the grid's "
                          f"{list(grid.mask.shape)}")
    if header["mask_rle"] != _mask_rle(grid.mask):
        raise SchemaError("stored mask does not match the supplied grid")
    size = os.path.getsize(base + ".f64")
    if size != 8 * grid.mask.size:
        raise SchemaError(f"{base}.f64 holds {size} bytes, not the 8 per cell of "
                          f"{grid.mask.size} cells")
    values = np.fromfile(base + ".f64", dtype="<f8").reshape(grid.mask.shape)
    if not np.all(np.isfinite(values[grid.mask])):
        raise SchemaError("the stored field has non-finite values on masked cells")
    return GridField.from_checked(grid, values)
