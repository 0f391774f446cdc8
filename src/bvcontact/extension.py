"""Boundary-data extension and recovery-sequence construction.

extend_boundary_data builds a mollified-cone boundary layer: with d(x) the
distance to the boundary and s(x) the arc position of the nearest boundary
point,

    w(x) = (1 - d(x)/delta)_+ * avg of g over the arc window of half-width
           max(kappa * d(x), h/2) around s(x).

The linear cutoff makes the normal part of the gradient integrate to about
int |g|, and the widening window tames the tangential part for rough g, so
the achieved ratios  int |w| / int |g|  and  int |grad w| / int |g|  land at
about eps and 1 + eps respectively.  The layer width adapts to the arc total
variation of g: a fixed width cannot meet the gradient target for oscillatory
data, so delta shrinks like eps * ||g||_1 / TV(g) when g oscillates.

recovery_sequence adds such layers to a base field to prescribe its trace,
and optimal_boundary_values picks per-sample contact values q minimizing
tau(x, q) + sigma |t - q| within eps of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import _closed_form_argmin, yosida_radius
from .errors import LayerTooThin, MaskMismatch
from .grid import GridField, TraceSample, l1_norm, trace_extract, tv_grid

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

    def __repr__(self):
        return (f"ExtensionResult(l1_ratio={self.l1_ratio:.4g}, "
                f"grad_ratio={self.grad_ratio:.4g}, delta={self.layer_width:.4g})")


def _arc_tv(g: TraceSample) -> float:
    v = g.values
    if v.ndim > 1:
        return float(np.abs(np.diff(v, axis=0)).sum() + np.abs(v[0] - v[-1]).sum())
    return float(np.abs(np.diff(v)).sum() + abs(v[0] - v[-1]))


class _ArcAverager:
    """Windowed averages of a boundary sample table via periodic prefix sums."""

    def __init__(self, g: TraceSample):
        self.P = float(g.w.sum())
        # segment boundaries: samples tile the boundary contiguously
        self.breaks = np.concatenate([[0.0], np.cumsum(g.w)])
        self.vals = g.values
        seg = g.values * g.w if g.values.ndim == 1 else g.values * g.w[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(seg)]) if g.values.ndim == 1 \
            else np.vstack([np.zeros(g.values.shape[1]), np.cumsum(seg, axis=0)])

    def _F(self, s):
        # integral of g over [0, s], s may lie outside [0, P]
        wraps = np.floor(s / self.P)
        s0 = s - wraps * self.P
        idx = np.clip(np.searchsorted(self.breaks, s0, side="right") - 1,
                      0, len(self.breaks) - 2)
        frac = s0 - self.breaks[idx]
        if self.vals.ndim == 1:
            return self.cum[idx] + self.vals[idx] * frac + wraps * self.cum[-1]
        return (self.cum[idx] + self.vals[idx] * frac[:, None]
                + wraps[:, None] * self.cum[-1])

    def window_mean(self, s, half_width):
        hw = np.maximum(half_width, 1e-12)
        upper = self._F(s + hw)
        lower = self._F(s - hw)
        if self.vals.ndim == 1:
            return (upper - lower) / (2 * hw)
        return (upper - lower) / (2 * hw[:, None])


def extend_boundary_data(g: TraceSample, eps: float, h: float,
                         kappa: float = 0.5, delta: float | None = None) -> ExtensionResult:
    """Field with trace g, small mass, and gradient close to int |g|.

    eps in (0, 1] steers both targets: the reported ratios satisfy
    l1_ratio <~ eps and grad_ratio <~ 1 + eps (plus O(kappa) and O(h/delta)
    grid terms).  Raises LayerTooThin when h > delta/8 for the selected
    width; widths beyond half the shortest edge are clamped and flagged.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    dom = g.dom
    grid = dom.grid(h)
    total = g.abs_integral()
    if total == 0.0:
        zero = GridField(grid, np.zeros(grid.mask.shape if g.values.ndim == 1
                                        else grid.mask.shape + (g.values.shape[1],)))
        return ExtensionResult(zero, 0.0, 0.0, 0.0, kappa, False, 0.0)

    corner_overlap = False
    if delta is None:
        delta = DELTA_L1_FACTOR * eps * min(1.0, dom.perimeter / 4.0)
        tv = _arc_tv(g)
        if tv > 0:
            delta = min(delta, DELTA_TV_FACTOR * eps * total / tv)
    cap = 0.5 * dom.shortest_edge
    if delta > cap:
        delta = cap
        corner_overlap = True
    if h > delta / 8.0:
        raise LayerTooThin(f"h = {h:.4g} exceeds delta/8 = {delta / 8:.4g}; "
                           f"refine the grid or increase eps")

    dist, arc = grid.distance_maps()
    layer = grid.mask & (dist < delta)
    iy, ix = np.nonzero(layer)
    t = dist[iy, ix]
    s = arc[iy, ix]
    avg = _ArcAverager(g)
    G = avg.window_mean(s, kappa * t)
    cutoff = 1.0 - t / delta
    vector = g.values.ndim > 1
    shape = grid.mask.shape + (() if not vector else (g.values.shape[1],))
    vals = np.zeros(shape)
    vals[iy, ix] = G * cutoff if not vector else G * cutoff[:, None]
    w_field = GridField(grid, vals)
    return ExtensionResult(
        field=w_field,
        l1_ratio=l1_norm(w_field) / total,
        grad_ratio=tv_grid(w_field) / total,
        layer_width=delta,
        kappa=kappa,
        corner_overlap=corner_overlap,
        boundary_l1=total,
    )


def required_eps(g: TraceSample, h: float) -> float:
    """Smallest eps whose adaptive layer width stays resolvable (>= 8h) for
    this particular boundary datum, arc-oscillation included."""
    per_unit = DELTA_L1_FACTOR * min(1.0, g.dom.perimeter / 4.0)
    tv = _arc_tv(g)
    total = g.abs_integral()
    if tv > 0 and total > 0:
        per_unit = min(per_unit, DELTA_TV_FACTOR * total / tv)
    return 8.0 * h / per_unit


def recovery_sequence(u: GridField, p: TraceSample, n: int,
                      kappa: float = 0.5) -> GridField:
    """n-th recovery field: u plus a boundary layer carrying p - Tr u.

    Its trace approaches p, its L1 distance to u is at most about
    (1/n) int |p - Tr u|, and its gradient exceeds TV(u) by at most about
    (1 + 1/n) int |p - Tr u|.  n is clamped so the layer stays resolvable
    (>= 8 cells); the realized sharpness is u.grid dependent.
    """
    return _recovery_with_sharpness(u, p, n, kappa)[0]


def _recovery_with_sharpness(u, p, n, kappa=0.5):
    """(field, effective eps): eps = max(1/n, resolvability floor for p - Tr u)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tr = trace_extract(u)
    if len(tr) != len(p) or not np.allclose(tr.s, p.s):
        raise MaskMismatch("boundary samples of p do not match Tr u")
    gvals = p.values - tr.values
    if np.max(np.abs(gvals)) == 0.0:
        return u, 0.0
    g = TraceSample(p.s, p.x, p.normal, p.w, gvals, p.edge_id, p.perimeter, p.dom)
    eps = max(1.0 / n, required_eps(g, u.h))
    ext = extend_boundary_data(g, eps, u.h, kappa=kappa)
    return GridField(u.grid, u.values + ext.field.values), eps


def optimal_boundary_values(u: GridField, d, ctx, eps: float) -> TraceSample:
    """Per-sample near-minimizers of tau(x, q) + sigma |t - q| at t = Tr u.

    The achieved value is within eps of the transform at every sample (grid
    step eps / (4 sigma) inside the radius bound; closed forms for builtins).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tr = trace_extract(u)
    t = tr.values
    sigma = ctx.sigma
    q = _closed_form_argmin(d, sigma, t)
    if q is None:
        radius = max(yosida_radius(d, sigma, tuple(tr.x[i]), float(t[i]))
                     for i in range(len(tr)))
        step = eps / (4.0 * sigma)
        offsets = np.arange(-radius, radius + step, step)
        x_dep = d.kind == "expression" and ("x1" in (d.expr_text or "")
                                            or "x2" in (d.expr_text or ""))
        if d.kind in ("linear", "absolute", "quadratic", "tabulated") or \
                (d.kind == "expression" and not x_dep):
            qgrid = np.unique(np.concatenate([offsets, t]))
            tau_q = d.eval_many(None, qgrid)
            obj = tau_q[None, :] + sigma * np.abs(t[:, None] - qgrid[None, :])
            q = qgrid[np.argmin(obj, axis=1)]
        else:
            q = np.empty_like(t)
            for i in range(len(t)):
                qgrid = np.concatenate([t[i] + offsets, [t[i]]])
                tau_q = d.eval_many(tuple(tr.x[i]), qgrid)
                q[i] = qgrid[np.argmin(tau_q + sigma * np.abs(t[i] - qgrid))]
    return tr.map_values(lambda _: q)


def compactness_bound(energy: float, d, dom, sigma: float, epsilon0: float,
                      l1_mass: float, fitted_C: float) -> float:
    """Gradient bound for energy-bounded fields under an admissible pair:

        TV(u) <= (energy + ||c||_1 + sigma * C * int |u|) / (sigma * eps0).

    ||c||_1 is integrated along the boundary from the density's c.
    """
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    b = dom.grid(dom.shortest_edge / 16).boundary()
    c_l1 = float(sum(wi * d.c_at(xi) for wi, xi in zip(b.w, b.x)))
    return (energy + c_l1 + sigma * fitted_C * l1_mass) / (sigma * epsilon0)
