"""Boundary-data extension and recovery-sequence construction.

extend_boundary_data builds a mollified-cone boundary layer: with d(x) the
distance to the boundary and s(x) the arc position of the nearest boundary
point,

    w(x) = (1 - d(x)/delta)_+ * avg of g over the arc window of half-width
           max(kappa * d(x), 1e-12) around s(x).

The linear cutoff makes the normal part of the gradient integrate to about
int |g|, and the widening window tames the tangential part for rough g, so
the achieved ratios  int |w| / int |g|  and  int |grad w| / int |g|  land at
about eps and 1 + eps respectively.  The layer width adapts to the arc total
variation of g: a fixed width cannot meet the gradient target for oscillatory
data, so delta shrinks like eps * ||g||_1 / TV(g) when g oscillates.
The layer is built on its own cells: the rows t < delta of the grid's
arc-window table (DomainGrid.arc_windows), which holds every band cell's
distance and where its window ends fall in the boundary samples, once per
(grid, kappa), so a trace costs only its prefix sums and a few gathers.
Both ratios are certified there: the mass sums over the layer cells, the
masked total variation over the layer and the ring of cells whose forward x
or y neighbor lies in it; every other cell has zero gradient.  g must be
sampled at the grid's own boundary samples.

recovery_sequence adds such layers to a base field to prescribe its trace,
and optimal_boundary_values picks per-sample contact values q minimizing
tau(x, q) + sigma |t - q| within eps of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import YosidaContext, _brute_force_yosida, closed_form
from .errors import LayerTooThin, MaskMismatch
from .grid import GridField, TraceSample, _grad_at, trace_extract

DELTA_L1_FACTOR = 1.8      # delta <= 1.8 * eps keeps the L1 ratio below 0.9 * eps
DELTA_TV_FACTOR = 2.0      # delta <= 2 * eps * ||g||_1 / TV(g) caps the tangential cost


@dataclass
class ExtensionResult:
    """Boundary-layer field with its achieved certificates."""

    field: GridField
    l1_ratio: float
    grad_ratio: float
    layer_width: float
    kappa: float
    corner_overlap: bool      # requested width exceeded half the shortest edge
    boundary_l1: float        # int_bd |g|


def _arc_tv(g: TraceSample) -> float:
    v = g.values
    return float(np.abs(np.diff(v)).sum() + abs(v[0] - v[-1]))


def _layer_width(g: TraceSample, eps: float) -> float:
    """The adaptive layer width before the cap at W: 1.8 eps (scaled down on
    domains of perimeter below 4), and at most 2 eps ||g||_1 / TV(g)."""
    delta = DELTA_L1_FACTOR * eps * min(1.0, g.dom.perimeter / 4.0)
    tv = _arc_tv(g)
    if tv > 0:
        delta = min(delta, DELTA_TV_FACTOR * eps * g.abs_integral() / tv)
    return delta


def _layer(aw, g: TraceSample, delta: float):
    """The layer's flat lattice indices (table rows with t < delta, in
    lattice order) and w there: the cutoff 1 - t/delta times the mean of g
    over the arc window.  Written in place: the layer's temporaries set the
    extension's peak."""
    sel = np.flatnonzero(aw.t < delta)
    cum = np.concatenate([np.zeros(1), np.cumsum(g.values * g.w)])
    w = _arc_integral(aw, 1, sel, g.values, cum)
    w -= _arc_integral(aw, 0, sel, g.values, cum)
    t = aw.t.take(sel)
    hw = aw.half_width(t)
    hw *= 2
    w /= hw
    w *= np.subtract(1.0, np.divide(t, delta, out=t), out=t)
    return aw.cells.take(sel).astype(np.intp), w


def _arc_integral(aw, end, sel, vals, cum):
    """Integral of g over [0, s] at the table rows sel, s = arc -+ hw for end
    0 / 1: g's value on the bracketing sample times the offset into it, plus
    the prefix sum before it and one full turn per wrap."""
    idx, wraps, offset = aw.ends[end]
    # one widening of the int32 brackets serves both gathers
    idx = idx.take(sel).astype(np.intp)
    out = vals.take(idx)
    out *= offset.take(sel)
    out += cum.take(idx)
    wraps = wraps.take(sel)
    # without wraps, add the signed zero 0 * cum[-1] of a k = 0 row: bit for bit
    out += wraps.astype(float) * cum[-1] if wraps.any() else 0.0 * cum[-1]
    return out


def extend_boundary_data(g: TraceSample, eps: float, h: float,
                         kappa: float = 0.5) -> ExtensionResult:
    """Field with trace g, small mass, and gradient close to int |g|.

    eps in (0, 1] steers both targets: the reported ratios satisfy
    l1_ratio <~ eps and grad_ratio <~ 1 + eps (plus O(kappa) and O(h/delta)
    grid terms).  Raises LayerTooThin when h > delta/8 for the selected
    width; widths beyond W = dom.band_width (half the shortest edge, where
    the grid's band ends) are clamped and flagged.  Raises MaskMismatch when
    g is not sampled at grid(h).boundary()'s samples.  The ratios are
    computed on the layer cells and one ring around them, and equal
    l1_norm(field) / int |g| and tv_grid(field) / int |g| up to summation
    order.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if not 0 <= kappa < np.inf:
        raise ValueError(f"kappa must be a finite number >= 0, got {kappa}")
    dom = g.dom
    grid = dom.grid(h)
    b = grid.boundary()
    if not (np.array_equal(g.s, b.s) and np.array_equal(g.w, b.w)):
        raise MaskMismatch(f"g is not sampled at the boundary samples of the h = {h:.4g} grid")
    total = g.abs_integral()
    if total == 0.0:
        return ExtensionResult(GridField(grid, np.zeros(grid.mask.shape)),
                               0.0, 0.0, 0.0, kappa, False, 0.0)

    corner_overlap = False
    delta = _layer_width(g, eps)
    if delta > dom.band_width:
        delta = dom.band_width
        corner_overlap = True
    if h > delta / 8.0:
        why = (f"delta is capped at W = {delta:.4g}, half the shortest edge; no eps helps, "
               "it needs h <= W/8" if corner_overlap else "refine the grid or increase eps")
        raise LayerTooThin(f"h = {h:.4g} exceeds delta/8 = {delta / 8:.4g}; {why}")

    cells, w = _layer(grid.arc_windows(kappa), g, delta)
    if not np.all(np.isfinite(w)):
        raise ValueError("field has non-finite values on masked cells")
    vals = np.zeros(grid.mask.shape)
    vals.reshape(-1)[cells] = w
    w_field = GridField.from_checked(grid, vals)
    # certificates: w vanishes off the layer, so its masked gradient vanishes
    # off the layer and the cells whose +x or +y neighbor lies in it
    l1_ratio = float(grid.cell_area * np.abs(w, out=w).sum()) / total
    layer = np.zeros(grid.mask.shape, dtype=bool)
    layer.reshape(-1)[cells] = True
    del cells, w            # layer-sized, and the gradient's gathers come on top
    ring = layer.copy()
    ring[:, :-1] |= layer[:, 1:]
    ring[:-1, :] |= layer[1:, :]
    dx, dy = _grad_at(vals, grid.h, grid.neighbor_masks(), np.flatnonzero(ring))
    dx *= dx
    dy *= dy
    dx += dy
    return ExtensionResult(
        field=w_field,
        l1_ratio=l1_ratio,
        grad_ratio=float(grid.cell_area * np.sqrt(dx, out=dx).sum()) / total,
        layer_width=delta,
        kappa=kappa,
        corner_overlap=corner_overlap,
        boundary_l1=total,
    )


def required_eps(g: TraceSample, h: float) -> float:
    """Smallest eps whose adaptive layer width stays resolvable (>= 8h) for
    this particular boundary datum, arc-oscillation included: 8h over the
    width per unit eps, stepped up by the ulps the width loses to rounding
    (the cap at W is not considered)."""
    per_unit = DELTA_L1_FACTOR * min(1.0, g.dom.perimeter / 4.0)
    tv = _arc_tv(g)
    total = g.abs_integral()
    if tv > 0 and total > 0:
        per_unit = min(per_unit, DELTA_TV_FACTOR * total / tv)
    eps = 8.0 * h / per_unit
    # the layer width rounds on its own path; step up the last ulps it misses
    while h > _layer_width(g, eps) / 8.0:
        eps = float(np.nextafter(eps, np.inf))
    return eps


def recovery_sequence(u: GridField, p: TraceSample, n: int) -> tuple[GridField, float]:
    """n-th recovery field, u plus a boundary layer carrying p - Tr u, and the
    layer's effective eps = max(1/n, resolvability floor for p - Tr u) <= 1
    (0 where Tr u already equals p).

    Its trace approaches p, its L1 distance to u is at most about
    eps int |p - Tr u|, and its gradient exceeds TV(u) by at most about
    (1 + eps) int |p - Tr u|.  The floor keeps the layer resolvable
    (>= 8 cells), so the realized sharpness is u.grid dependent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tr = trace_extract(u)
    if len(tr) != len(p) or not np.allclose(tr.s, p.s):
        raise MaskMismatch("boundary samples of p do not match Tr u")
    g = p.map_values(lambda v: v - tr.values)
    if np.max(np.abs(g.values)) == 0.0:
        return u, 0.0
    eps = min(max(1.0 / n, required_eps(g, u.h)), 1.0)
    ext = extend_boundary_data(g, eps, u.h)
    return GridField(u.grid, u.values + ext.field.values), eps


def optimal_boundary_values(u: GridField, d, ctx, eps: float) -> TraceSample:
    """Per-sample near-minimizers of tau(x, q) + sigma |t - q| at t = Tr u.

    The achieved value is within eps of the transform at every sample: the
    closed-form argmin for builtins, else the minimizer of the transform's
    search (density._brute_force_yosida), exact for a density piecewise
    linear in p and on a grid of step eps / (4 sigma) otherwise, each sample
    at its own point.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tr = trace_extract(u)
    cf = closed_form(d, ctx.sigma)
    if cf is not None:
        return tr.map_values(cf.argmin)
    search = YosidaContext(ctx.sigma, q_grid_step=eps / (4.0 * ctx.sigma))
    return tr.map_values(lambda t: _brute_force_yosida(d, search, tr.x, t)[1])


def compactness_bound(energy: float, d, dom, sigma: float, epsilon0: float,
                      l1_mass: float, fitted_C: float) -> float:
    """Gradient bound for energy-bounded fields under an admissible pair:

        TV(u) <= (energy + ||c||_1 + sigma * C * int |u|) / (sigma * eps0).

    ||c||_1 is integrated along the boundary from the density's c.
    """
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    s, w, _ = dom.edge_samples(dom.shortest_edge / 16)
    c_l1 = float(sum(wi * d.c_at(xi) for wi, xi in zip(w, dom.boundary_point(s))))
    return (energy + c_l1 + sigma * fitted_C * l1_mass) / (sigma * epsilon0)
