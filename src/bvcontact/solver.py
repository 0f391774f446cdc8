"""First-order primal-dual minimization of TV/area energies with contact terms.

Solves, on the cell lattice of a polygonal domain,

    min_u  R(grad u) + B(u) + sum_s w_s tau_hat(x_s, u_probe(s)),

where R is either sigma * |.| (total variation) or sqrt(beta^2 + |.|^2)
(smoothed area integrand; the conjugate -beta * sqrt(1 - |xi|^2) is handled
exactly, so beta is a modeling knob, not an extra approximation layer), and
B is a quadratic fidelity or the capillary u^2 bulk.  The dual variable is
projected (TV) or solved radially (area) every iteration, so dual
feasibility |xi| <= dual_bound holds exactly along the whole trajectory.

The boundary contact acts through per-sample proximal steps on the probe
cells, aggregated by arc-length weight; closed forms cover linear and
absolute transformed densities, everything else goes through a tabulated
transform whose exact node argmin is searched in a window around the
minimizer of the table's lower convex envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import YosidaContext, _closed_form_yosida, yosida_eval_many
from .errors import NonconvexBoundaryTerm
from .geometry import PolygonalDomain
from .grid import (EnergyReport, GridField, _grad, _grad_adjoint, energy_capillarity,
                   energy_H, tv_grid)

#: table-mode prox nodes lie on the lattice -PROX_VALUE_RANGE + k * PROX_NODE_STEP;
#: k = 0 .. PROX_NODES - 1 covers [-PROX_VALUE_RANGE, PROX_VALUE_RANGE]
PROX_VALUE_RANGE = 6.0
PROX_NODES = 4001
PROX_NODE_STEP = 2 * PROX_VALUE_RANGE / (PROX_NODES - 1)


# -- dual resolvents ---------------------------------------------------------------------


def _dual_step_tv(zx, zy, sigma):
    mag = np.hypot(zx, zy)
    scale = np.maximum(1.0, mag / sigma)
    return zx / scale, zy / scale


def _dual_step_area(zx, zy, s_beta):
    """prox of s * f* at z with f*(xi) = -beta sqrt(1 - |xi|^2): radial root of
    phi(r) = s_beta r / sqrt(1 - r^2) + r = |z| on [0, 1).

    phi is convex and increasing, so safeguarded Newton from an upper start
    (clipped into [0, 1)) decreases monotonically onto the root.
    """
    mag = np.hypot(zx, zy)
    top = 1.0 - 1e-15
    r = np.minimum(mag, top)
    for _ in range(14):
        omr = np.maximum(1.0 - r * r, 1e-30)
        root = np.sqrt(omr)
        phi = s_beta * r / root + r - mag
        dphi = s_beta / (omr * root) + 1.0
        r = np.clip(r - phi / dphi, 0.0, top)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag > 0, r / mag, 0.0)
    return scale * zx, scale * zy


# -- contact prox -----------------------------------------------------------------------


def _lower_hull(x, y):
    """Indices of the vertices of the lower convex hull of the points (x, y),
    x increasing (Andrew's monotone chain)."""
    hull = []
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        while len(hull) >= 2:
            (_, xa, ya), (_, xb, yb) = hull[-2], hull[-1]
            if (xb - xa) * (yi - ya) > (yb - ya) * (xi - xa):
                break
            hull.pop()
        hull.append((i, xi, yi))
    return np.array([i for i, _, _ in hull])


class _ContactProx:
    """Per-cell resolvent  v = argmin_v  t W tau_hat(x, v) + (v - z)^2 / 2  on
    the probe cells, W being the cells' summed sample weights.

    mode 'linear': tau_hat(v) = mu v; 'absolute': mu |v|, with mu read from the
    density's closed-form transform; 'table' (every other kind): the exact
    argmin over tabulated transform values T on the nodes qs.

    Table mode brackets each cell by the node j minimizing the convex
    surrogate s C + (q - z)^2 / 2, with C the lower convex envelope of T and
    s = t W, then searches the nodes within m of j.  With g = max(T - C) and
    the node step dq, every node whose objective is at most the value at j
    lies within dq + sqrt(2 s g) of node j (the surrogate is 1-strongly
    convex and T - C lies in [0, g]), so the window returns the dense argmin,
    first-index ties included; a nonconvex table only widens the window.

    data_range = (lo, hi) spans the bulk target and the start; on a side where
    it leaves [-PROX_VALUE_RANGE, PROX_VALUE_RANGE] the nodes extend to
    PROX_VALUE_RANGE beyond it.
    """

    def __init__(self, d, ctx, boundary, mask_shape, h, data_range=(0.0, 0.0)):
        W = np.zeros(mask_shape)
        np.add.at(W, (boundary.probe_iy, boundary.probe_ix), boundary.w)
        self.cells = np.nonzero(W > 0)
        self.W = W[self.cells] / (h * h)   # scaled weights (energy divided by h^2)
        self.mu = None
        self.table = None
        if d is None:
            self.mode = "none"
        elif d.kind in ("linear", "absolute"):
            # raises UnboundedBelow when the slope exceeds sigma
            self.mu = float(_closed_form_yosida(d, ctx.sigma, 1.0))
            self.mode = d.kind
        else:
            self.mode = "table"
            R, dq = PROX_VALUE_RANGE, PROX_NODE_STEP
            lo, hi = data_range
            k_lo = math.floor(lo / dq) if lo < -R else 0
            k_hi = PROX_NODES - 1 + (math.ceil(hi / dq) if hi > R else 0)
            self.qs = np.arange(k_lo, k_hi + 1) * dq + (-R)
            # representative boundary point: densities vary continuously in x
            # at the cell scale, vectorized tabulation uses the first sample
            x0 = tuple(boundary.x[0])
            self.table = yosida_eval_many(d, ctx, x0, self.qs)
            hull = _lower_hull(self.qs, self.table)
            envelope = np.interp(self.qs, self.qs[hull], self.table[hull])
            self.gap = float((self.table - envelope).max())
            if self.gap > 1e-8 * max(1.0, np.abs(self.table).max()):
                warnings.warn("sampled contact transform is nonconvex; iterates "
                              "certify stationarity only", NonconvexBoundaryTerm)
            # bisection keys: node j minimizes s C + (q - z)^2 / 2 iff it is the
            # first with s env_slope_j + midpoint_j >= z (the last key is +inf)
            self.env_slope = np.append(np.diff(envelope) / np.diff(self.qs), np.inf)
            self.midpoint = np.append(0.5 * (self.qs[1:] + self.qs[:-1]), np.inf)
            self.bisect_steps = math.ceil(math.log2(len(self.qs)))

    def apply(self, u, t):
        if t <= 0:
            raise ValueError("t must be positive")
        if self.mode == "none" or len(self.cells[0]) == 0:
            return u
        z = u[self.cells]
        tw = t * self.W
        if self.mode == "linear":
            v = z - tw * self.mu
        elif self.mode == "absolute":
            if self.mu >= 0:
                v = np.sign(z) * np.maximum(np.abs(z) - tw * self.mu, 0.0)
            else:
                s = np.where(z == 0, 1.0, np.sign(z))
                v = z + tw * (-self.mu) * s
        else:
            v = self._table_argmin(z, tw)
        u[self.cells] = v
        return u

    def _table_argmin(self, z, tw):
        n = len(self.qs)
        lo = np.zeros(len(z), dtype=np.intp)
        hi = np.full(len(z), n - 1, dtype=np.intp)
        for _ in range(self.bisect_steps):
            mid = (lo + hi) // 2
            up = tw * self.env_slope[mid] + self.midpoint[mid] >= z
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid + 1)
        dq = PROX_NODE_STEP
        m = math.ceil((math.sqrt(2.0 * float(tw.max()) * self.gap) + dq) / dq) + 1
        width = min(2 * m + 1, n)
        start = np.clip(lo - m, 0, n - width)
        table = sliding_window_view(self.table, width)[start]
        qs = sliding_window_view(self.qs, width)[start]
        obj = table * tw[:, None] + 0.5 * (qs - z[:, None]) ** 2
        return self.qs[start + np.argmin(obj, axis=1)]

    def energy(self, u):
        if self.mode == "none" or len(self.cells[0]) == 0:
            return 0.0
        z = u[self.cells]
        if self.mode == "linear":
            vals = self.mu * z
        elif self.mode == "absolute":
            vals = self.mu * np.abs(z)
        else:
            vals = np.interp(z, self.qs, self.table)
        return float((self.W * vals).sum())


@dataclass
class SolverState:
    """Iterate bundle with certificates: dual feasibility is exact, the energy
    history is recorded per iteration (scaled objective), and the residual is
    ||u_k - u_{k-1}|| / t_primal."""

    u: GridField
    xi: tuple
    t_primal: float
    t_dual: float
    iterations: int
    residual_history: np.ndarray
    energy_history: np.ndarray
    dual_bound: float
    dual_feasibility_max: float
    beta: float | None = None
    notes: dict = field(default_factory=dict)


@dataclass
class SolverResult:
    u: GridField
    report: EnergyReport
    residual: float
    state: SolverState


def minimize_energy(dom: PolygonalDomain, d=None, ctx: YosidaContext | None = None,
                    bulk: str = "quadratic", f=None, nu: float | None = None,
                    h: float = 1 / 128, iters: int = 2000, tol: float = 1e-6,
                    beta: float = 1e-3, step_scale: float = 8.0,
                    allow_no_bulk: bool = False, u0=None,
                    unsafe_step_product: float = 1.0) -> SolverResult:
    """Primal-dual minimization on dom at spacing h.

    bulk selects the smooth term: 'quadratic' for (u - f)^2, 'capillarity'
    for the area integrand + u^2 + nu * boundary trace (d and ctx are then
    ignored; the contact is the linear density nu), 'none' for pure
    TV + contact, which is frequently unbounded or trivial and therefore
    requires allow_no_bulk=True.

    Returns the iterate once ||u_k - u_{k-1}|| / t_primal <= tol or iters is
    exhausted, with the energy report evaluated by the grid functionals.
    """
    if bulk not in ("none", "quadratic", "capillarity"):
        raise ValueError("bulk must be 'none', 'quadratic', or 'capillarity'")
    if bulk == "none" and not allow_no_bulk:
        raise ValueError("bulk='none' is usually ill-posed; pass allow_no_bulk=True "
                         "to override")
    grid = dom.grid(h)
    mask = grid.mask
    ok_x, ok_y = grid.neighbor_masks()
    boundary = grid.boundary()

    if bulk == "capillarity":
        if nu is None:
            raise ValueError("capillarity needs nu")
        from . import density as density_mod
        ctx = YosidaContext(sigma=1.0)
        d = density_mod.linear(float(nu))
        area_mode = True
        sigma = 1.0
    else:
        if ctx is None:
            raise ValueError("ctx (with sigma) is required unless bulk='capillarity'")
        area_mode = False
        sigma = ctx.sigma

    f_arr = np.zeros(mask.shape)
    if f is not None:
        f_arr = f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
        f_arr = np.broadcast_to(f_arr, mask.shape).copy()
    have_bulk = bulk != "none"

    # steps: t * s * ||grad||^2 <= 1 with ||grad|| <= sqrt(8)/h; a larger
    # primal step strengthens the contraction from the strongly convex bulk.
    # unsafe_step_product > 1 deliberately breaks the bound (divergence demos).
    norm_K = math.sqrt(8.0) / h
    t = step_scale * math.sqrt(unsafe_step_product) / norm_K
    s = math.sqrt(unsafe_step_product) / (step_scale * norm_K)

    if u0 is not None:
        u = (u0.values if isinstance(u0, GridField) else np.asarray(u0, float)).copy()
    elif bulk == "capillarity":
        u = np.where(mask, _best_constant_capillarity(grid, boundary, nu), 0.0)
    else:
        u = f_arr.copy()
    u[~mask] = 0.0
    lo = min(float(a.min(where=mask, initial=np.inf)) for a in (f_arr, u))
    hi = max(float(a.max(where=mask, initial=-np.inf)) for a in (f_arr, u))
    contact = _ContactProx(d, ctx, boundary, mask.shape, h, data_range=(lo, hi))
    ubar = u.copy()
    xx = np.zeros(mask.shape)
    yy = np.zeros(mask.shape)

    res_hist = np.empty(iters)
    en_hist = np.empty(iters)
    n_done = iters
    for k in range(iters):
        gx, gy = _grad(ubar, h, ok_x, ok_y)
        zx, zy = xx + s * gx, yy + s * gy
        if area_mode:
            xx, yy = _dual_step_area(zx, zy, s * beta)
        else:
            xx, yy = _dual_step_tv(zx, zy, sigma)
        u_prev = u
        z = u - t * _grad_adjoint(xx, yy, h, ok_x, ok_y)
        if have_bulk:
            z = (z + 2.0 * t * f_arr) / (1.0 + 2.0 * t)
        z = contact.apply(z, t / (1.0 + 2.0 * t) if have_bulk else t)
        u = np.where(mask, z, 0.0)
        ubar = 2.0 * u - u_prev
        res = float(np.linalg.norm((u - u_prev)[mask])) / t
        res_hist[k] = res
        en_hist[k] = _scaled_energy(u, h, ok_x, ok_y, mask, sigma, beta, area_mode,
                                    have_bulk, f_arr, contact)
        if res <= tol:
            n_done = k + 1
            break

    dual_bound = 1.0 if area_mode else sigma
    feas = float(np.hypot(xx, yy).max())
    state = SolverState(
        u=GridField(grid, u), xi=(xx, yy), t_primal=t, t_dual=s,
        iterations=n_done, residual_history=res_hist[:n_done],
        energy_history=en_hist[:n_done], dual_bound=dual_bound,
        dual_feasibility_max=feas, beta=beta if area_mode else None,
        notes={"bulk": bulk, "h": h, "step_scale": step_scale})

    uf = GridField(grid, u)
    if bulk == "capillarity":
        report = energy_capillarity(uf, nu)
        report.notes["beta"] = beta
    else:
        report = energy_H(uf, d, ctx) if d is not None else \
            EnergyReport(sigma * tv_grid(uf), 0.0, 0.0)
        if have_bulk:
            bulk_val = float(grid.cell_area * ((u - f_arr)[mask] ** 2).sum())
            report = EnergyReport(report.tv_term, report.contact_term, bulk_val,
                                  report.per_edge, "grid_estimate", report.notes)
    return SolverResult(u=uf, report=report, residual=float(res_hist[n_done - 1]),
                        state=state)


def _best_constant_capillarity(grid, boundary, nu):
    # 1-D problem in c: area_h + c^2 |O|_h + nu c Per_h
    area = grid.cell_area * grid.mask.sum()
    per = float(boundary.w.sum())
    return -nu * per / (2.0 * area)


def _scaled_energy(u, h, ok_x, ok_y, mask, sigma, beta, area_mode, have_bulk,
                   f_arr, contact):
    gx, gy = _grad(u, h, ok_x, ok_y)
    mag = np.hypot(gx, gy)
    if area_mode:
        e = np.sqrt(beta * beta + mag * mag)[mask].sum()
    else:
        e = sigma * mag[mask].sum()
    if have_bulk:
        e += ((u - f_arr)[mask] ** 2).sum()
    return float(e + contact.energy(u))


def diagnostics(state: SolverState) -> dict:
    """Convergence curves and certificates; needs at least 2 iterations."""
    if state.iterations < 2:
        raise ValueError("diagnostics need at least 2 iterations")
    en = state.energy_history
    window = np.convolve(en, np.ones(5) / 5.0, mode="valid") if len(en) >= 5 else en
    monotone_after_10 = bool(np.all(np.diff(window[max(0, 10 - 4):]) <= 1e-8 *
                                    max(1.0, np.abs(window).max())))
    return {
        "energy_curve": en.copy(),
        "residual_curve": state.residual_history.copy(),
        "dual_feasibility_max": state.dual_feasibility_max,
        "dual_bound": state.dual_bound,
        "monotone_energy_after_10": monotone_after_10,
        "iterations": state.iterations,
    }
