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
arc-window table (DomainGrid.arc_windows), which holds the band cells out to
a reach (at most W) with their distance and where their window ends fall in
the boundary samples, built once per (grid, kappa) and again only for a wider
layer, so a trace costs only its prefix sums and a few gathers; a layer as
wide as the table takes every row.  Both ratios are certified there: the
mass sums over the layer cells, the masked total variation over the table's
ring cells (the rows and the cells whose forward x or y neighbor is one) that
can read a layer cell; every other cell has zero gradient.  The result holds
the layer, its cells and values, not a lattice field.  g carries the grid
it was sampled on (TraceSample.grid), and the layer is built on that grid.

recovery_sequence adds such layers to a base field to prescribe its trace,
and optimal_boundary_values picks per-sample contact values q minimizing
tau(x, q) + sigma |t - q| within eps of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import YosidaContext, _brute_force_yosida, closed_form
from .errors import LayerTooThin, MaskMismatch
from .grid import GridField, TraceSample, trace_extract

DELTA_L1_FACTOR = 1.8      # delta <= 1.8 * eps keeps the L1 ratio below 0.9 * eps
DELTA_TV_FACTOR = 2.0      # delta <= 2 * eps * ||g||_1 / TV(g) caps the tangential cost


@dataclass
class ExtensionResult:
    """Boundary layer with its achieved certificates: the extension is
    values at the flat lattice indices cells of grid(h), and zero elsewhere.
    cells may be the grid's arc-window table's own array: read, not write."""

    cells: np.ndarray         # the layer's flat lattice indices, in lattice order
    values: np.ndarray        # w on them
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
    delta = DELTA_L1_FACTOR * eps * min(1.0, g.grid.dom.perimeter / 4.0)
    tv = _arc_tv(g)
    if tv > 0:
        delta = min(delta, DELTA_TV_FACTOR * eps * g.abs_integral() / tv)
    return delta


def _rows(a, sel):
    """a at the table rows sel, or a itself where sel is None (every row)."""
    return a if sel is None else a.take(sel)


def _layer(aw, g: TraceSample, delta: float, sel):
    """The layer's flat lattice indices (the table rows sel, those with
    t < delta, in lattice order; None for every row) and w there: the cutoff
    1 - t/delta times the mean of g over the arc window.  Written in place:
    the layer's temporaries set the extension's peak."""
    cum = np.concatenate([np.zeros(1), np.cumsum(g.values * g.w)])
    w = _arc_integral(aw, 1, sel, g.values, cum)
    w -= _arc_integral(aw, 0, sel, g.values, cum)
    t = _rows(aw.t, sel)
    hw = aw.half_width(t)
    hw *= 2
    w /= hw
    cut = np.divide(t, delta, out=hw)
    w *= np.subtract(1.0, cut, out=cut)
    return _rows(aw.cells, sel), w


def _arc_integral(aw, end, sel, vals, cum):
    """Integral of g over [0, s] at the table rows sel, s = arc -+ hw for end
    0 / 1: g's value on the bracketing sample times the offset into it, plus
    the prefix sum before it and one full turn per wrap."""
    idx, wraps, offset = aw.ends[end]
    # one widening of the int32 brackets serves both gathers
    idx = _rows(idx, sel).astype(np.intp)
    out = vals.take(idx)
    out *= _rows(offset, sel)
    out += cum.take(idx)
    del idx
    wraps = _rows(wraps, sel)
    # without wraps, add the signed zero 0 * cum[-1] of a k = 0 row: bit for bit
    out += wraps * cum[-1] if wraps.any() else 0.0 * cum[-1]
    return out


def extend_boundary_data(g: TraceSample, eps: float, h: float,
                         kappa: float = 0.5) -> ExtensionResult:
    """Boundary layer with trace g, small mass, and gradient close to int |g|,
    on g.grid, the grid g was sampled on.

    eps in (0, 1] steers both targets: the reported ratios satisfy
    l1_ratio <~ eps and grad_ratio <~ 1 + eps (plus O(kappa) and O(h/delta)
    grid terms).  Raises LayerTooThin when h > delta/8 for the selected
    width, before any table is built; widths beyond W = dom.band_width (half
    the shortest edge, where the grid's band ends) are clamped and flagged.
    Raises MaskMismatch when g carries no grid or one of spacing other than
    h.  The ratios are computed on the layer cells and one ring around them,
    and equal l1_norm / int |g| and tv_grid / int |g| of the layer's field up
    to summation order.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if not 0 <= kappa < np.inf:
        raise ValueError(f"kappa must be a finite number >= 0, got {kappa}")
    grid = g.grid
    if grid is None or grid.h != h:
        raise MaskMismatch("g is not sampled at the boundary samples of a grid of "
                           f"spacing h = {h:.4g}")
    total = g.abs_integral()
    if total == 0.0:
        return ExtensionResult(np.empty(0, dtype=np.int32), np.empty(0),
                               0.0, 0.0, 0.0, kappa, False, 0.0)

    corner_overlap = False
    delta = _layer_width(g, eps)
    if delta > grid.dom.band_width:
        delta = grid.dom.band_width
        corner_overlap = True
    if h > delta / 8.0:
        why = (f"delta is capped at W = {delta:.4g}, half the shortest edge; no eps helps, "
               "it needs h <= W/8" if corner_overlap else "refine the grid or increase eps")
        raise LayerTooThin(f"h = {h:.4g} exceeds delta/8 = {delta / 8:.4g}; {why}")

    aw = grid.arc_windows(kappa, delta)
    # a layer as wide as the table takes every row, and every ring cell
    every = delta >= aw.reach
    sel = None if every else np.flatnonzero(aw.t < delta)
    cells, w = _layer(aw, g, delta, sel)
    if not np.all(np.isfinite(w)):
        raise ValueError("field has non-finite values on masked cells")
    l1_ratio = float(grid.cell_area * np.abs(w).sum()) / total
    # certificates: w vanishes off the layer, so its masked gradient vanishes
    # off the ring cells whose least t is below delta
    by_row = np.zeros(len(aw.cells) + 1)    # w by table row; the sentinel reads 0
    if every:
        by_row[:-1] = w
        w = by_row[:-1]                     # one copy of the layer's values
    else:
        by_row[sel] = w
    del sel
    keep = None if every else aw.ring_t < delta
    # one gather per neighbor; indexing reads the int32 positions without a
    # wide copy
    here, dx, dy = (by_row[pos if keep is None else pos[keep]] for pos in aw.ring)
    del by_row, keep
    inv_h = 1.0 / grid.h
    dx -= here
    dx *= inv_h
    dy -= here
    dy *= inv_h
    del here
    dx *= dx
    dy *= dy
    dx += dy
    return ExtensionResult(
        cells=cells,
        values=w,
        l1_ratio=l1_ratio,
        grad_ratio=float(grid.cell_area * np.sqrt(dx, out=dx).sum()) / total,
        layer_width=delta,
        kappa=kappa,
        corner_overlap=corner_overlap,
        boundary_l1=total,
    )


def required_eps(g: TraceSample) -> float:
    """Smallest eps whose adaptive layer width stays resolvable (>= 8h, h the
    spacing of g.grid) for this particular boundary datum, arc-oscillation
    included: 8h over the width per unit eps, stepped up by the ulps the width
    loses to rounding (the cap at W is not considered)."""
    h = g.grid.h
    per_unit = DELTA_L1_FACTOR * min(1.0, g.grid.dom.perimeter / 4.0)
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
    (>= 8 cells), so the realized sharpness is u.grid dependent.  Raises
    MaskMismatch unless p is sampled on u.grid itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.grid is not u.grid:
        raise MaskMismatch("p is not sampled on the grid of u")
    tr = trace_extract(u)
    g = p.map_values(lambda v: v - tr.values)
    if np.max(np.abs(g.values)) == 0.0:
        return u, 0.0
    eps = min(max(1.0 / n, required_eps(g)), 1.0)
    ext = extend_boundary_data(g, eps, u.h)
    # u + 0.0 off the layer, as adding the layer's zero-padded field gives
    vals = np.add(u.values, 0.0, order="C")
    vals.reshape(-1)[ext.cells] += ext.values
    return GridField(u.grid, vals), eps


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
