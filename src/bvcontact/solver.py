"""First-order primal-dual minimization of TV/area energies with contact terms.

Solves, on the cell lattice of a polygonal domain,

    min_u  R(grad u) + B(u) + sum_s w_s tau_hat(x_s, u_probe(s)),

where R is either sigma * |.| (total variation) or sqrt(beta^2 + |.|^2)
(smoothed area integrand; the conjugate -beta * sqrt(1 - |xi|^2) is handled
exactly, so beta is a modeling knob, not an extra approximation layer), and
B is a quadratic fidelity or the capillary u^2 bulk.  The iteration is
over-relaxed Chambolle-Pock (RELAX).  Both bulks are strongly convex, so
every solve has a minimizer.  The dual prox is a projection (TV) or a radial
root (area), so every dual prox output keeps |xi| <= dual_bound exactly; the
solver returns prox outputs, and with a closed-form contact (every builtin
density) the primal-dual gap P(u) - D(xi) bounds how far the returned
iterate's objective is above its minimum, and confirms the stop.

The boundary contact acts through per-sample proximal steps on the probe
cells, aggregated by arc-length weight.  The resolvent takes one of two
paths: the density's closed-form prox (density.closed_form: any builtin
kind), or, for every other kind, a tabulated transform T whose exact node
argmin is searched around the node j minimizing the surrogate built on T's
lower convex envelope C: one searchsorted per weight class W, over keys equal
to a bisection's, finds every j, and the window reaches the largest
dq + sqrt(2 t W (T_j - C_j)) over the cells (dq the node step).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .density import YosidaContext, closed_form, linear, yosida_eval_many
from .errors import NonconvexBoundaryTerm
from .geometry import DomainGrid
from .grid import EnergyReport, GridField, _grad, _grad_adjoint, energy_capillarity, energy_H

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

#: the solver records the scaled objective and the primal-dual gap on the same
#: rows, every GAP_EVERY-th iteration and the last, and NaN on the others; the
#: dual objective costs about one energy record
GAP_EVERY = 10

#: over-relaxation of the primal-dual iteration: each iteration moves the pair
#: (u_k, xi_k) to (u_k, xi_k) + RELAX ((u~, xi~) - (u_k, xi_k)), (u~, xi~) the
#: prox outputs; any RELAX in (0, 2) converges under the same step bound
#: (Condat, JOTA 158 (2013), Alg. 3.2; Chambolle & Pock, Acta Numerica 25
#: (2016), sec. 5.1).  Iterations fall about as 1 / RELAX (capillarity at
#: h = 1/128: 1207 at 1, 672 at 1.8, 639 at 1.9), but at 1.9 the nonconvex
#: two-well contact solve (square, h = 1/128) diverges where 1.8 converges
RELAX = 1.8

#: primal over dual step: t = STEP_RATIO / ||K|| and s = 1 / (STEP_RATIO ||K||),
#: so t s ||K||^2 = 1 at any ratio, and a longer primal step strengthens the
#: contraction from the strongly convex bulk.  On the capillarity benchmark
#: solve (square, nu = 0.5, h = 1/128) 6 stops after 672 iterations with
#: gap_relative 1.7e-8, where the plain iteration took 1207
STEP_RATIO = 6.0


# -- dual resolvents ---------------------------------------------------------------------


def _dual_step_tv(z, sigma):
    """Projection of z (shape (2, ny, nx)) onto |xi| <= sigma, z * sigma /
    max(sigma, |z|), in place on z with two temporaries."""
    mag = z[0] * z[0]
    tmp = z[1] * z[1]
    mag += tmp
    np.sqrt(mag, out=mag)
    np.maximum(mag, sigma, out=mag)
    np.divide(sigma, mag, out=mag)
    z *= mag
    return z


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


@functools.lru_cache(maxsize=32)
def _certified_m2(s_beta, top):
    """The largest |z|^2 whose one Newton step _one_step_bound certifies within
    DUAL_NEWTON_TOL at s_beta, and the bound there: the bound rises with m and
    is 0 at m = 0, so a bisection on the floats finds it, once per s_beta (a
    solve uses one)."""
    lo, hi = 0.0, top * top
    if _one_step_bound(hi, s_beta, top) <= DUAL_NEWTON_TOL:
        lo = hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _one_step_bound(mid, s_beta, top) <= DUAL_NEWTON_TOL:
            lo = mid
        else:
            hi = mid
    return lo, _one_step_bound(lo, s_beta, top)


def _radial_root(mag, s_beta, top):
    """The safeguarded Newton loop of _dual_step_area on the 1-D array mag =
    |z| > 0: the root r, the number of steps and the largest correction of
    the last step.  Each step runs on the cells still moving only."""
    # |z|^2 overflows at extreme |z|: fmin keeps |z| over the x / inf that
    # follows, and r0 = 0 there, which one step lifts above the root
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r = np.minimum(np.fmin(mag / np.sqrt(mag * mag + s_beta * s_beta), mag), top)
    idx, steps, corr = np.arange(len(mag)), 0, np.zeros(1)
    while steps < DUAL_NEWTON_CAP and len(idx):
        steps += 1
        r[idx], corr = _radial_newton(r[idx], mag[idx], s_beta, top)
        idx = idx[corr > DUAL_NEWTON_TOL]
    return r, steps, float(corr.max())


def _dual_step_area(z, s_beta):
    """prox of s * f* at z (shape (2, ny, nx)) with f*(xi) = -beta sqrt(1 -
    |xi|^2): radial root of phi(r) = s_beta r / sqrt(1 - r^2) + r = |z| on
    [0, top], top = 1 - 1e-15 (a root above top, where |z| > top + 2.2e7
    s_beta, is clipped to top).

    phi is convex and increasing, so Newton from an upper bound of the root
    decreases monotonically onto it.  The first step starts at r0 = |z|: with
    q = (1 - |z|^2)^(3/2) it is the factor r1 / |z| = (q + s_beta |z|^2) /
    (q + s_beta) on z, with no |z| and no division by it.  On a cell with
    |z| = m <= top and _one_step_bound(m^2) <= DUAL_NEWTON_TOL that step is
    certified within DUAL_NEWTON_TOL of the root (the bound also caps every
    further correction); the bound rises with m, so the certified cells are
    those with |z|^2 <= _certified_m2(s_beta).  When the largest |z| is
    certified the call returns after the one step on the full arrays; on the
    capillarity benchmark solve (max |z| 0.70, s_beta 4.6e-7) every call does.

    Otherwise the certified cells take the one step and the rest (|z| near or
    above 1, or a large s_beta) a safeguarded Newton loop (_radial_root),
    clipped into [0, top], from r0 = min(|z|, |z| / sqrt(s_beta^2 + |z|^2),
    top): the root has r <= |z| and s_beta r <= |z| sqrt(1 - r^2).  The
    second bound is the one that matters where |z| >= 1; from r = top, Newton
    only triples 1 - r per step there.  A cell stops once its applied
    (clipped) correction |phi / phi'| is at most DUAL_NEWTON_TOL; a test on
    |phi| alone would not stop near r = 1, where phi' is ~1e22 s_beta.  Above
    the existence bound (nu = 0.85, h = 1/64) ~380 of 4096 cells lie past
    the certified radius, and those with |z| just above 1 take up to 22
    steps.

    Returns xi (z's shape), the largest number of steps a cell took and a
    bound on the distance to the root: when every cell is certified the
    bound at the largest |z|, else the larger of the bound at _certified_m2
    and the largest correction of the loop's last step, which exceeds
    DUAL_NEWTON_TOL only if DUAL_NEWTON_CAP cut some cell short.
    """
    mag = z[0] * z[0]
    tmp = z[1] * z[1]
    mag += tmp
    top = 1.0 - 1e-15
    m2 = float(mag.max())
    cert2, cert_bound = _certified_m2(s_beta, top)
    if not m2 <= cert2:                  # NaN cells stay NaN on the factor path
        flat = mag.reshape(-1)
        rest = np.flatnonzero(flat > cert2)
        ma = np.sqrt(flat[rest])
        flat[rest] = 0.0                 # overwritten below; keeps the factor finite
    q = np.subtract(1.0, mag, out=tmp)
    q *= np.sqrt(q)                      # (1 - |z|^2)^(3/2)
    mag *= s_beta
    mag += q
    q += s_beta
    mag /= q                             # r1 / |z|
    if m2 <= cert2:
        return z * mag, 1, _one_step_bound(m2, s_beta, top)
    r, steps, corr = _radial_root(ma, s_beta, top)
    flat[rest] = r / ma
    return z * mag, steps, max(corr, cert_bound)


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
    the probe cells, W being the cells' summed sample weights.  cells holds
    their flat lattice indices in row-major order, so apply and energy read a
    C-contiguous lattice array through its flat view (apply writes in place).

    Two resolvent paths: the density's closed-form prox where it has one
    (density.closed_form: every builtin kind), else the exact argmin over
    tabulated transform values T on the nodes qs.  One table serves every
    cell, so the table path raises ValueError for a density that reads x
    (depends_on_x).

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
        W = np.bincount(boundary.probe, weights=boundary.w, minlength=math.prod(mask_shape))
        self.cells = np.flatnonzero(W)
        self.W = W[self.cells] / (h * h)   # scaled weights (energy divided by h^2)
        # raises UnboundedBelow when the slope exceeds sigma
        self.closed = closed_form(d, ctx.sigma)
        if self.closed is None:
            if d.depends_on_x:
                raise ValueError("the table-mode contact prox takes densities free of x; "
                                 "this one reads the boundary point")
            R, dq = PROX_VALUE_RANGE, PROX_NODE_STEP
            lo, hi = data_range
            k_lo = math.floor(lo / dq) if lo < -R else 0
            k_hi = PROX_NODES - 1 + (math.ceil(hi / dq) if hi > R else 0)
            self.qs = np.arange(k_lo, k_hi + 1) * dq + (-R)
            self.table = yosida_eval_many(d, ctx, tuple(boundary.x[0]), self.qs)
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
            self.class_cells = self.cells[order]
            self.class_ends = np.cumsum(np.bincount(cls)).tolist()
            self.class_cell_W = self.W[order]
            self._t = None
            self._views = {}

    def apply(self, u, t):
        if t <= 0:
            raise ValueError("t must be positive")
        flat = u.reshape(-1)
        if self.closed is not None:
            flat[self.cells] = self.closed.prox(flat[self.cells], t * self.W)
        else:
            flat[self.class_cells] = self._table_argmin(flat[self.class_cells], t)
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
        z = u.reshape(-1)[self.cells]
        vals = self.closed.hat(z) if self.closed is not None else np.interp(z, self.qs, self.table)
        return float((self.W * vals).sum())


@dataclass
class SolverResult:
    """The returned primal-dual pair (u, xi) with its certificates.  Dual
    feasibility is exact, and the histories hold one row per iteration k = 1
    .. iterations.  residual_history has a value on every row;
    energy_history and gap_history are recorded on the same rows, every
    GAP_EVERY-th, any row whose residual is <= tol, and the last, and are
    NaN on the others.

    energy_history[k - 1] is the scaled objective P(u~_k) of iteration k's
    primal prox output u~_k (the returned u at the last row): the masked
    cell sums of the regularizer (the beta-smoothed area integrand
    sqrt(beta^2 + |grad u|^2) in capillarity mode, sigma |grad u|
    otherwise), the bulk and W tau_hat on the probe cells, i.e. the energy
    divided by h^2.  It is not the report total (capillarity at h = 1/128:
    -16369.04 against -1.86e-4): in capillarity mode the report reads the
    area integrand with beta = 1, and the two agree, times h^2, only at
    beta = 1.

    residual_history[k - 1] is the un-relaxed step ||u~_k - u_{k-1}|| / t
    over the masked cells, t being the primal step and u_{k-1} the relaxed
    iterate.

    gap_history[k - 1] is the primal-dual gap P(u~_k) - D(xi~_k) (see
    _dual_value) at iteration k's prox outputs, on the recorded rows.  xi~_k
    is feasible, so weak duality makes it >= 0 and a bound on P(u~_k) - min
    P, and the last row (gap) certifies the returned pair; gap_relative is
    gap / max(1, |P(u)|).  gap_history is None where the solver has no dual
    objective, which is a table-mode contact.

    notes are empty but in capillarity mode, where they hold the area dual
    step's counts: dual_newton_steps_max, dual_one_step_calls (the calls in
    which every cell took the certified one step of _dual_step_area, or a
    loop whose first correction was already within DUAL_NEWTON_TOL) and
    dual_newton_correction_max, the largest bound on the distance to the
    root that a call returned."""

    u: GridField
    xi: np.ndarray                       # shape (2, ny, nx)
    report: EnergyReport
    residual_history: np.ndarray
    energy_history: np.ndarray
    gap_history: np.ndarray | None
    dual_bound: float
    dual_feasibility_max: float
    notes: dict

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def residual(self) -> float:
        return float(self.residual_history[-1])

    @property
    def gap(self) -> float | None:
        return None if self.gap_history is None else float(self.gap_history[-1])

    @property
    def gap_relative(self) -> float | None:
        if self.gap_history is None:
            return None
        return self.gap / max(1.0, abs(float(self.energy_history[-1])))


def minimize_energy(grid: DomainGrid, d=None, ctx: YosidaContext | None = None,
                    bulk: str = "quadratic", f=None, nu: float | None = None,
                    iters: int = 2000, tol: float = 1e-6, beta: float = 1e-3) -> SolverResult:
    """Primal-dual minimization on grid, a domain's lattice at spacing grid.h;
    the returned field lives on that grid.

    bulk selects the strongly convex term: 'quadratic' for (u - f)^2 with
    the contact density d (None is linear(0)), 'capillarity' for the area
    integrand + u^2 + nu * boundary trace (the contact is the linear density
    nu, so d must be None; ctx is ignored).  Only 'quadratic' reads f:
    'capillarity' raises ValueError when given one.

    The capillarity solve minimizes sqrt(beta^2 + |grad u|^2) + u^2 + nu Tr u,
    while its report (grid.energy_capillarity) reads the area functional
    sqrt(1 + |grad u|^2) at the returned u; the two are one functional only
    at beta = 1.  At the default beta = 1e-3 the solve is the near-TV problem,
    whose minimizer is the best constant (square, h = 1/32, nu = 0.5: u within
    [-1.0002, -0.9999], report total -1.7e-4); at beta = 1 the same solve
    reports -0.0772, equal to h^2 energy_history[-1] to rounding.

    The primal step is t = STEP_RATIO / ||K|| and the dual step s = 1 /
    (STEP_RATIO ||K||), ||K|| = sqrt(8) / h.  Each iteration is over-relaxed
    Chambolle-Pock: the primal prox u~ at u_k - t K* xi_k, the dual prox xi~
    at xi_k + s K (2 u~ - u_k), then (u_{k+1}, xi_{k+1}) = (u_k, xi_k) +
    RELAX ((u~, xi~) - (u_k, xi_k)); RELAX = 1 is the plain iteration.  The
    residual is the un-relaxed step ||u~ - u_k|| / t over the masked cells.
    The scaled objective P(u~) and the primal-dual gap P(u~) - D(xi~)
    (SolverResult.gap, a bound on how far P(u~) is above its minimum) are
    recorded on the same rows, every GAP_EVERY iterations, on every row
    whose residual is <= tol and at the last, and are NaN on the others;
    the gradient of u~ is still taken on every iteration, since the dual
    step reads it.  The solver stops once the residual is <= tol and, where
    there is a gap (every contact but a table-mode one), the gap is <= tol
    max(1, |P(u~)|) as well, or after iters iterations.  It returns that
    iteration's prox outputs (u~, xi~), with the energy report evaluated by
    the grid functionals; xi~ is a prox output, so |xi~| <= dual_bound,
    which a relaxed xi_k need not keep.
    """
    if bulk not in ("quadratic", "capillarity"):
        raise ValueError("bulk must be 'quadratic' or 'capillarity'")
    area_mode = bulk == "capillarity"
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"iters must be an integer >= 1, got {iters!r}")
    if isinstance(tol, bool) or not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if isinstance(beta, bool) or not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0 (0 is the TV limit), got {beta!r}")
    if area_mode and (nu is None or isinstance(nu, bool) or not -math.inf < nu < math.inf):
        raise ValueError(f"nu must be a finite number for capillarity, got {nu!r} "
                         "(missing, non-finite or not a number)")
    if area_mode and f is not None:
        raise ValueError(f"bulk={bulk!r} reads no f; only bulk='quadratic' has a forcing")
    if area_mode and d is not None:
        raise ValueError("bulk='capillarity' has the contact density nu * p and reads no d")
    h = grid.h
    mask = grid.mask
    ok = grid.neighbor_masks()
    boundary = grid.boundary()

    if area_mode:
        ctx = YosidaContext(sigma=1.0)
        d = linear(float(nu))
    elif ctx is None:
        raise ValueError("ctx (with sigma) is required unless bulk='capillarity'")
    elif d is None:
        d = linear(0.0)
    sigma = ctx.sigma

    f_arr = np.zeros(mask.shape)
    if f is not None:
        f_arr = f.values if isinstance(f, GridField) else np.asarray(f, dtype=float)
        f_arr = np.broadcast_to(f_arr, mask.shape).copy()
        f_arr[~mask] = 0.0               # so that every primal prox output is 0 there

    norm_K = math.sqrt(8.0) / h          # ||grad|| <= sqrt(8) / h
    t = STEP_RATIO / norm_K
    s = 1.0 / (STEP_RATIO * norm_K)

    if area_mode:
        u = np.where(mask, _best_constant_capillarity(grid, boundary, nu), 0.0)
    else:
        u = f_arr.copy()
    lo = min(float(a.min(where=mask, initial=np.inf)) for a in (f_arr, u))
    hi = max(float(a.max(where=mask, initial=-np.inf)) for a in (f_arr, u))
    contact = _ContactProx(d, ctx, boundary, mask.shape, h, data_range=(lo, hi))
    # the relaxed iterates (u_k, xi_k) are carried as u_k, K* xi_k and
    # c_k = xi_k - s grad u_k, the linear images that the prox inputs read
    kxi = np.zeros(mask.shape)           # xi_0 = 0
    c = _grad(u, h, ok)
    c *= -s
    ut = np.empty(mask.shape)            # the primal prox output u~
    inside = mask.astype(float)          # masked-cell sums as dot products

    res_hist = np.empty(iters)
    en_hist = np.full(iters, np.nan)
    # the dual objective needs a closed-form contact prox
    has_gap = contact.closed is not None
    gap_hist = np.full(iters, np.nan) if has_gap else None
    newton_steps, newton_corr, one_step_calls = 0, 0.0, 0
    tf = 2.0 * t * f_arr if f is not None else None
    shrink = 1.0 / (1.0 + 2.0 * t)
    t_contact = t * shrink
    for k in range(iters):
        # u~ = prox_tG(u_k - t K* xi_k), in place; 0 off the mask, as u_k is
        np.multiply(kxi, -t, out=ut)
        ut += u
        if tf is not None:
            ut += tf
        ut *= shrink
        contact.apply(ut, t_contact)
        step = np.subtract(ut, u, out=u)  # u~ - u_k, in u_k's buffer
        res = math.sqrt(float(np.dot(step.ravel(), step.ravel()))) / t
        res_hist[k] = res
        z = _grad(ut, h, ok)             # grad u~, until it turns into z below
        stop = res <= tol
        record = stop or k + 1 == iters or (k + 1) % GAP_EVERY == 0
        if record:
            en_hist[k] = _scaled_energy(ut, z, inside, sigma, beta, area_mode, f_arr, contact)
        # z = xi_k + s K (2 u~ - u_k) = c_k + 2 s grad u~, the dual prox
        # input, in place of grad u~.  The relaxed c_{k+1} = c_k + RELAX (xi~ -
        # s grad u~ - c_k) is (1 - RELAX/2) c_k - (RELAX/2) z + RELAX xi~: its
        # first two terms go into c now (a TV step overwrites z), the last
        # after the step
        z *= 2.0 * s
        z += c
        c *= (RELAX - 2.0) / RELAX
        c += z
        c *= -0.5 * RELAX
        if area_mode:
            xi, steps, corr = _dual_step_area(z, s * beta)
            newton_steps, newton_corr = max(newton_steps, steps), max(newton_corr, corr)
            one_step_calls += steps == 1
        else:
            xi = _dual_step_tv(z, sigma)
        kt = _grad_adjoint(xi, h, ok)
        if has_gap and record:
            gap_hist[k] = en_hist[k] - _dual_value(kt, xi, inside, beta, area_mode, f_arr,
                                                   contact)
            # a small step stops the solve only where the gap confirms it
            stop = stop and gap_hist[k] <= tol * max(1.0, abs(en_hist[k]))
        if stop or k + 1 == iters:
            break
        # relax: x_{k+1} = x_k + RELAX (x~ - x_k) for u, K* xi and c
        step *= RELAX - 1.0
        step += ut                       # u_{k+1} = u~ + (RELAX - 1) (u~ - u_k)
        kt -= kxi
        kt *= RELAX
        kxi += kt
        xi *= RELAX
        c += xi

    n = k + 1
    uf = GridField(grid, ut)
    notes = {}
    if area_mode:
        notes = dict(dual_newton_steps_max=newton_steps, dual_newton_correction_max=newton_corr,
                     dual_one_step_calls=one_step_calls)
        report = energy_capillarity(uf, nu)
        report.notes["beta"] = beta
    else:
        report = energy_H(uf, d, ctx)
        bulk_val = float(grid.cell_area * ((ut - f_arr)[mask] ** 2).sum())
        report = EnergyReport(report.tv_term, report.contact_term, bulk_val,
                              report.per_edge, "grid_estimate", report.notes)
    feas = float(np.sqrt(xi[0] * xi[0] + xi[1] * xi[1]).max())
    return SolverResult(
        u=uf, xi=xi, report=report, residual_history=res_hist[:n],
        energy_history=en_hist[:n], gap_history=None if gap_hist is None else gap_hist[:n],
        dual_bound=sigma, dual_feasibility_max=feas, notes=notes)


def _best_constant_capillarity(grid, boundary, nu):
    # 1-D problem in c: area_h + c^2 |O|_h + nu c Per_h
    area = grid.cell_area * grid.mask.sum()
    per = float(boundary.w.sum())
    return -nu * per / (2.0 * area)


def _scaled_energy(u, g, inside, sigma, beta, area_mode, f_arr, contact):
    """The objective at u divided by h^2, with g = _grad(u): the area
    integrand sqrt(beta^2 + |grad u|^2) or sigma |grad u|, the bulk and the
    contact, summed over the masked cells (inside: the mask as 0.0 / 1.0,
    so that the sum is one dot product).  In place on two temporaries."""
    e = g[0] * g[0]
    tmp = g[1] * g[1]
    e += tmp
    if area_mode:
        e += beta * beta
        np.sqrt(e, out=e)
    else:
        np.sqrt(e, out=e)
        e *= sigma
    np.subtract(u, f_arr, out=tmp)
    tmp *= tmp
    e += tmp
    return float(np.dot(e.ravel(), inside.ravel())) + contact.energy(u)


def _dual_value(kxi, xi, inside, beta, area_mode, f_arr, contact):
    """The dual objective D(xi) = -sum F*(xi) - sum G*(-K* xi) over the masked
    cells (inside as in _scaled_energy), in the units of _scaled_energy, with
    kxi = K* xi = _grad_adjoint of xi; weak duality gives P(u) - D(xi) >= 0
    for every u and every xi with |xi| <= dual_bound.  -F*(xi) is beta
    sqrt(1 - |xi|^2) in area mode and 0 in TV mode.  With p = -K* xi, G*(p)
    is p f + p^2 / 4 off the probe cells and p v - (v - f)^2 - W tau_hat(v)
    on them, v = prox(f + p / 2, W / 2) the maximizer (capillarity: (p - nu
    W)^2 / 4).  Needs the closed-form contact prox on the probe cells."""
    p = np.negative(kxi)
    g = p * 0.25
    g += f_arr
    g *= p                               # G*(p) off the probe cells
    cells, W = contact.cells, contact.W
    pc, fc = p.reshape(-1)[cells], f_arr.reshape(-1)[cells]
    v = contact.closed.prox(fc + 0.5 * pc, 0.5 * W)
    g.reshape(-1)[cells] = pc * v - (v - fc) ** 2 - W * contact.closed.hat(v)
    dual = -float(np.dot(g.ravel(), inside.ravel()))
    if area_mode:
        e = np.subtract(1.0, xi[0] * xi[0])
        e -= xi[1] * xi[1]
        np.sqrt(np.maximum(e, 0.0, out=e), out=e)
        dual += beta * float(np.dot(e.ravel(), inside.ravel()))
    return dual
