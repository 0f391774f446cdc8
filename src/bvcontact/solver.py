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
cells, aggregated by arc-length weight.  The resolvent takes one of two
paths: the density's closed-form prox (density.closed_form: linear and
absolute), or, for every other kind, a tabulated transform T whose exact node
argmin is searched around the node j minimizing the surrogate built on T's
lower convex envelope C: one searchsorted per weight class W, over keys equal
to a bisection's, finds every j, and the window reaches the largest
dq + sqrt(2 t W (T_j - C_j)) over the cells (dq the node step).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import YosidaContext, closed_form, yosida_eval_many
from .errors import NonconvexBoundaryTerm, UnsupportedArity
from .geometry import PolygonalDomain
from .grid import (EnergyReport, GridField, _grad, _grad_adjoint, energy_capillarity,
                   energy_H, tv_grid)

#: table-mode prox nodes lie on the lattice -PROX_VALUE_RANGE + k * PROX_NODE_STEP;
#: k = 0 .. PROX_NODES - 1 covers [-PROX_VALUE_RANGE, PROX_VALUE_RANGE]
PROX_VALUE_RANGE = 6.0
PROX_NODES = 4001
PROX_NODE_STEP = 2 * PROX_VALUE_RANGE / (PROX_NODES - 1)

#: the area dual step returns after one Newton step where that step is certified
#: within DUAL_NEWTON_TOL of the root; otherwise its loop stops a cell once the
#: applied correction is at most DUAL_NEWTON_TOL, and every cell after
#: DUAL_NEWTON_CAP steps (the slowest start, |z| near 1 with s_beta ~ 5e-8, takes ~25)
DUAL_NEWTON_TOL = 4.0 * np.finfo(float).eps
DUAL_NEWTON_CAP = 100


# -- dual resolvents ---------------------------------------------------------------------


def _dual_step_tv(zx, zy, sigma):
    mag = zx * zx
    mag += zy * zy
    np.sqrt(mag, out=mag)
    scale = np.maximum(1.0, mag / sigma)
    return zx / scale, zy / scale


def _radial_newton(r, mag, s_beta, top):
    """One safeguarded Newton step r - phi(r) / phi'(r) of _dual_step_area,
    clipped into [0, top], and the size of the applied correction.  In place
    on three temporaries."""
    omr = r * r
    np.subtract(1.0, omr, out=omr)
    np.maximum(omr, 1e-30, out=omr)      # 1 - r^2
    root = np.sqrt(omr)
    phi = s_beta * r
    phi /= root
    phi += r
    phi -= mag                           # phi(r)
    omr *= root
    np.divide(s_beta, omr, out=omr)
    omr += 1.0                           # phi'(r)
    phi /= omr
    np.subtract(r, phi, out=phi)
    np.maximum(phi, 0.0, out=phi)
    new = np.minimum(phi, top, out=phi)
    np.subtract(new, r, out=omr)
    return new, np.abs(omr, out=omr)


def _one_step_bound(m2, s_beta, top):
    """Bound on r1 - r* after one Newton step from r0 = |z| on every cell with
    |z|^2 <= m2: 1.5 s^3 m^3 / (1 - m^2)^(7/2), from phi' >= 1 and phi''
    rising with r.  Evaluated as 1.5 x^3, x = s m / (1 - m^2)^(7/6), so that
    no power overflows; inf unless m <= top (then r1 <= m <= top)."""
    m = math.sqrt(m2)
    if not m <= top:
        return math.inf
    x = float(s_beta) * m / (1.0 - m2) ** (7 / 6)
    return 1.5 * x ** 3 if x <= 1.0 else math.inf


def _dual_step_area(zx, zy, s_beta):
    """prox of s * f* at z with f*(xi) = -beta sqrt(1 - |xi|^2): radial root of
    phi(r) = s_beta r / sqrt(1 - r^2) + r = |z| on [0, top], top = 1 - 1e-15
    (a root above top, where |z| > top + 2.2e7 s_beta, is clipped to top).

    phi is convex and increasing, so Newton from an upper bound of the root
    decreases monotonically onto it.  The first step starts at r0 = |z|: with
    q = (1 - |z|^2)^(3/2) it is the factor r1 / |z| = (q + s_beta |z|^2) /
    (q + s_beta) on z, with no |z| and no division by it.  When the largest
    |z| is m <= top and _one_step_bound(m^2) <= DUAL_NEWTON_TOL, every cell
    is then certified within DUAL_NEWTON_TOL of its root (the bound also caps
    every further correction), and the call returns after that one step.  On
    the capillarity benchmark solve (max |z| 0.70, s_beta 3.5e-7) every call
    does.

    Otherwise (|z| near or above 1, or a large s_beta) a safeguarded Newton
    loop, clipped into [0, top], runs from r0 = min(|z|, |z| / sqrt(s_beta^2 +
    |z|^2), top): the root has r <= |z| and s_beta r <= |z| sqrt(1 - r^2).
    The second bound is the one that matters where |z| >= 1; from r = top,
    Newton only triples 1 - r per step there.  A cell stops once its applied
    (clipped) correction |phi / phi'| is at most DUAL_NEWTON_TOL; a test on
    |phi| alone would not stop near r = 1, where phi' is ~1e22 s_beta.  Steps
    run on the full arrays while more than half the cells move, then on the
    indices of the cells still moving: above the existence bound (nu = 0.85)
    a few dozen cells with |z| just above 1 take up to 23 steps, where the
    other cells take 2.

    Returns xi_x, xi_y, the number of steps taken and a correction size: on
    the one-step path the certified bound on the distance to the root, on the
    loop the largest correction of the last step, which exceeds
    DUAL_NEWTON_TOL only if DUAL_NEWTON_CAP cut some cell short.
    """
    mag = zx * zx
    tmp = zy * zy
    mag += tmp
    top = 1.0 - 1e-15
    bound = _one_step_bound(float(mag.max()), s_beta, top)
    if bound <= DUAL_NEWTON_TOL:
        q = np.subtract(1.0, mag, out=tmp)
        q *= np.sqrt(q)                  # (1 - |z|^2)^(3/2)
        mag *= s_beta
        mag += q
        q += s_beta
        mag /= q                         # r1 / |z|
        return zx * mag, zy * mag, 1, bound
    np.sqrt(mag, out=mag)
    # |z|^2 under- or overflows at extreme |z|: fmin keeps |z| over the 0 / 0 and
    # x / 0 that follow, and an overflow gives r0 = 0, which one step lifts
    # above the root
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r = np.minimum(np.fmin(mag / np.sqrt(mag * mag + s_beta * s_beta), mag), top)
    steps, move = 0, np.ones(r.shape, bool)
    while steps < DUAL_NEWTON_CAP and 2 * np.count_nonzero(move) > move.size:
        steps += 1
        r, corr = _radial_newton(r, mag, s_beta, top)
        move = corr > DUAL_NEWTON_TOL
    flat, idx = r.reshape(-1), np.flatnonzero(move)
    ma = mag.reshape(-1)[idx]
    while steps < DUAL_NEWTON_CAP and len(idx):
        steps += 1
        flat[idx], corr = _radial_newton(flat[idx], ma, s_beta, top)
        move = corr > DUAL_NEWTON_TOL
        idx, ma = idx[move], ma[move]
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag > 0, r / mag, 0.0)
    return scale * zx, scale * zy, steps, float(corr.max())


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

    Two resolvent paths: the density's closed-form prox where it has one
    (density.closed_form), else the exact argmin over tabulated transform
    values T on the nodes qs.

    The table path brackets each cell by the node j minimizing the convex
    surrogate S = s C + (q - z)^2 / 2, with C the lower convex envelope of T
    and s = t W.  Since S_{j+1} - S_j = dq (s env_slope_j + midpoint_j - z),
    j is the first node whose key s env_slope_j + midpoint_j is >= z.  The
    cells are grouped once by their exact weight W; for each step t one key
    array per weight class is built, the same floats a bisection forms cell by
    cell, and one searchsorted per class finds every bracket.  The keys rise
    strictly: the midpoints step by the node step dq, and the rounding in the
    envelope slopes (~3e-13 on the benchmark's table) matters only at t W
    ~ 1e10.

    The objective is O = S + s (T - C), so a node k with O_k <= O_j has
    S_k <= S_j + s (T_j - C_j), and the 1-strongly convex S with its node
    minimum at j puts k within dq + sqrt(2 s (T_j - C_j)) of node j.  The
    window around j is sized by the largest such radius over the call's
    cells, so it returns the dense argmin, first-index ties included; where
    T = C at every bracket node it is 5 nodes wide, and a nonconvex table
    widens it only for cells bracketed inside a gap.

    data_range = (lo, hi) spans the bulk target and the start; on a side where
    it leaves [-PROX_VALUE_RANGE, PROX_VALUE_RANGE] the nodes extend to
    PROX_VALUE_RANGE beyond it.
    """

    def __init__(self, d, ctx, boundary, mask_shape, h, data_range=(0.0, 0.0)):
        W = np.zeros(mask_shape)
        np.add.at(W, (boundary.probe_iy, boundary.probe_ix), boundary.w)
        self.cells = np.nonzero(W > 0)
        self.W = W[self.cells] / (h * h)   # scaled weights (energy divided by h^2)
        self.off = d is None or len(self.cells[0]) == 0
        if d is not None and d.value_dim != 1:
            raise UnsupportedArity("the solver's field is scalar; the density needs M = 1")
        # raises UnboundedBelow when the slope exceeds sigma
        cf = None if d is None else closed_form(d, ctx.sigma)
        self.closed = cf if cf is not None and cf.prox is not None else None
        if d is not None and self.closed is None:
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
            self.node_gap = np.maximum(self.table - envelope, 0.0)   # T - C
            if self.node_gap.max() > 1e-8 * max(1.0, np.abs(self.table).max()):
                warnings.warn("sampled contact transform is nonconvex; iterates "
                              "certify stationarity only", NonconvexBoundaryTerm)
            # bracket keys s env_slope_j + midpoint_j; the last key is +inf
            self.env_slope = np.append(np.diff(envelope) / np.diff(self.qs), np.inf)
            self.midpoint = np.append(0.5 * (self.qs[1:] + self.qs[:-1]), np.inf)
            self.class_W, cls = np.unique(self.W, return_inverse=True)
            order = np.argsort(cls, kind="stable")
            self.class_cells = tuple(c[order] for c in self.cells)
            self.class_ends = np.cumsum(np.bincount(cls)).tolist()
            self.class_cell_W = self.W[order]
            self._t = None
            self._views = {}

    def apply(self, u, t):
        if t <= 0:
            raise ValueError("t must be positive")
        if self.off:
            return u
        if self.closed is not None:
            u[self.cells] = self.closed.prox(u[self.cells], t * self.W)
        else:
            u[self.class_cells] = self._table_argmin(u[self.class_cells], t)
        return u

    def _table_argmin(self, z, t):
        """Node argmin for the cells in class order (z and the result)."""
        if t != self._t:
            self._t, self._tw = t, t * self.class_cell_W
            self._keys = (t * self.class_W)[:, None] * self.env_slope + self.midpoint
        tw, n, dq = self._tw, len(self.qs), PROX_NODE_STEP
        j = np.empty(len(z), dtype=np.intp)
        a = 0
        for keys, b in zip(self._keys, self.class_ends):
            j[a:b] = keys.searchsorted(z[a:b])
            a = b
        m = math.ceil((math.sqrt(2.0 * float((tw * self.node_gap[j]).max())) + dq) / dq) + 1
        width = min(2 * m + 1, n)
        if width not in self._views:
            self._views[width] = (sliding_window_view(self.table, width),
                                  sliding_window_view(self.qs, width))
        table, qs = self._views[width]
        start = np.clip(j - m, 0, n - width)
        obj = table[start] * tw[:, None] + 0.5 * (qs[start] - z[:, None]) ** 2
        return self.qs[start + np.argmin(obj, axis=1)]

    def energy(self, u):
        if self.off:
            return 0.0
        z = u[self.cells]
        vals = self.closed.hat(z) if self.closed is not None else np.interp(z, self.qs, self.table)
        return float((self.W * vals).sum())


@dataclass
class SolverState:
    """Iterate bundle with certificates: dual feasibility is exact, and two
    histories hold one entry per iteration k = 1 .. iterations.

    energy_history[k - 1] is the scaled objective of u_k: the masked cell sums
    of the regularizer (the beta-smoothed area integrand sqrt(beta^2 +
    |grad u|^2) in capillarity mode, sigma |grad u| otherwise), the bulk and
    W tau_hat on the probe cells, i.e. the energy divided by h^2.  It is not
    the report total (capillarity at h = 1/128: -16369.04 against -1.86e-4).

    residual_history[k - 1] is ||u_k - u_{k-1}|| / t_primal over the masked
    cells.

    In capillarity mode notes also hold the area dual step's counts:
    dual_newton_steps_max, dual_one_step_calls (the calls that returned after
    one Newton step: the certified step of _dual_step_area, or a loop whose
    first correction was already within DUAL_NEWTON_TOL everywhere) and
    dual_newton_correction_max, the largest correction returned; on the
    certified path that is the bound on the distance to the root."""

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
                    allow_no_bulk: bool = False,
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
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0 (0 is the TV limit), got {beta}")
    if isinstance(step_scale, bool) or not 0 < step_scale < math.inf:
        raise ValueError(f"step_scale must be a finite number > 0, got {step_scale!r}")
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

    if bulk == "capillarity":
        u = np.where(mask, _best_constant_capillarity(grid, boundary, nu), 0.0)
    else:
        u = f_arr.copy()
    u[~mask] = 0.0
    lo = min(float(a.min(where=mask, initial=np.inf)) for a in (f_arr, u))
    hi = max(float(a.max(where=mask, initial=-np.inf)) for a in (f_arr, u))
    contact = _ContactProx(d, ctx, boundary, mask.shape, h, data_range=(lo, hi))
    xx = np.zeros(mask.shape)
    yy = np.zeros(mask.shape)
    # one gradient per iteration: g_k = grad u_k feeds the energy record, and
    # grad ubar_k = 2 g_k - g_{k-1} (the masked forward difference is linear)
    # feeds the next dual step; ubar_0 = u_0
    gx, gy = _grad(u, h, ok_x, ok_y)
    zx, zy = gx.copy(), gy.copy()

    res_hist = np.empty(iters)
    en_hist = np.empty(iters)
    n_done = iters
    newton_steps, newton_corr, one_step_calls = 0, 0.0, 0
    tf = 2.0 * t * f_arr
    for k in range(iters):
        zx *= s                          # z = xi + s grad ubar_k, in place
        zx += xx
        zy *= s
        zy += yy
        if area_mode:
            xx, yy, steps, corr = _dual_step_area(zx, zy, s * beta)
            newton_steps, newton_corr = max(newton_steps, steps), max(newton_corr, corr)
            one_step_calls += steps == 1
        else:
            xx, yy = _dual_step_tv(zx, zy, sigma)
        z = _grad_adjoint(xx, yy, h, ok_x, ok_y)
        z *= -t                          # z = u - t K* xi, in place
        z += u
        if have_bulk:
            z += tf
            z /= 1.0 + 2.0 * t
        z = contact.apply(z, t / (1.0 + 2.0 * t) if have_bulk else t)
        # u_{k+1} - u_k on the mask, then u_{k+1} in place (0 off the mask)
        res = float(np.linalg.norm(np.subtract(z, u)[mask])) / t
        np.copyto(u, z, where=mask)
        res_hist[k] = res
        px, py = gx, gy
        gx, gy = _grad(u, h, ok_x, ok_y)
        en_hist[k] = _scaled_energy(u, gx, gy, mask, sigma, beta, area_mode,
                                    have_bulk, f_arr, contact)
        if res <= tol:
            n_done = k + 1
            break
        zx = np.subtract(2.0 * gx, px, out=px)   # g_{k-1} is not needed again
        zy = np.subtract(2.0 * gy, py, out=py)

    dual_bound = 1.0 if area_mode else sigma
    feas = float(np.sqrt(xx * xx + yy * yy).max())
    state = SolverState(
        u=GridField(grid, u), xi=(xx, yy), t_primal=t, t_dual=s,
        iterations=n_done, residual_history=res_hist[:n_done],
        energy_history=en_hist[:n_done], dual_bound=dual_bound,
        dual_feasibility_max=feas, beta=beta if area_mode else None,
        notes={"bulk": bulk, "h": h, "step_scale": step_scale})
    if area_mode:
        state.notes.update(dual_newton_steps_max=newton_steps,
                           dual_newton_correction_max=newton_corr,
                           dual_one_step_calls=one_step_calls)

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


def _scaled_energy(u, gx, gy, mask, sigma, beta, area_mode, have_bulk, f_arr, contact):
    """The objective at u divided by h^2, with (gx, gy) = _grad(u): the area
    integrand sqrt(beta^2 + |grad u|^2) or sigma |grad u|, the bulk and the
    contact, summed over the masked cells.  In place on two temporaries."""
    e = gx * gx
    tmp = gy * gy
    e += tmp
    if area_mode:
        e += beta * beta
        np.sqrt(e, out=e)
    else:
        np.sqrt(e, out=e)
        e *= sigma
    if have_bulk:
        np.subtract(u, f_arr, out=tmp)
        tmp *= tmp
        e += tmp
    return float(e.sum(where=mask) + contact.energy(u))


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
