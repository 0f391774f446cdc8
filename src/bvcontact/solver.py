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
solver returns prox outputs, and on every solve the primal-dual gap
P(u) - D(xi) bounds how far the returned iterate's objective is above its
minimum, and confirms the stop.

The boundary contact acts through per-sample proximal steps on the probe
cells, aggregated by arc-length weight.  One transform object serves the
prox, the energy and the dual objective: the density's closed form (any
builtin kind) or a _PLTable, tau_hat tabulated and read as the piecewise-
linear T the energy interpolates, with the exact prox of T.  A nonconvex
T's gap need not close.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import YosidaContext, closed_form, linear, yosida_eval_many
from .errors import MaskMismatch, NonconvexBoundaryTerm
from .geometry import DomainGrid
from .grid import EnergyReport, GridField, _grad, _grad_adjoint, energy_capillarity, energy_H

#: the contact table's nodes cover [-PROX_VALUE_RANGE, PROX_VALUE_RANGE] (see _PLTable)
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


class _PLTable:
    """tau_hat at the boundary's first point, sampled on the nodes qs =
    -PROX_VALUE_RANGE + k PROX_NODE_STEP, k = 0 .. PROX_NODES - 1 (extended
    to PROX_VALUE_RANGE past a side of data_range = (lo, hi) that leaves
    them), read as the piecewise-linear T that np.interp makes of it, with
    density.closed_form's hat and prox: hat(v) = T(v), prox(z, a) = the
    exact argmin_v a T(v) + (v - z)^2 / 2 on [qs[0], qs[-1]] per cell.

    On segment j, of slope b_j, the minimizer is clip(z - a b_j, q_j,
    q_{j+1}).  On the lower convex envelope C (its segments join the hull
    vertices) the keys K_j = q_j + a b_j rise, and j is the last <= z
    (Lucet, SIAM Review 52 (2010)); one key row per weight class of a is
    kept for the next call with that a (a solve makes two).  Within 1e-8
    max(1, |T|) of C, T is convex and that point v_C is the prox, at most
    a max(T - C) above the minimum.  Otherwise a C + (v - z)^2 / 2 is
    1-strongly convex and below the objective, so a minimizer lies within
    r = sqrt(2 a (T - C)(v_C)) of v_C: where r > 0 the best local minimum
    of the convex runs of T (slopes that do not fall) meeting [v_C - r,
    v_C + r] wins.  A piecewise-linear density has few (the two-well 2).
    """

    def __init__(self, d, ctx, boundary, data_range):
        if d.depends_on_x:
            raise ValueError("the table-mode contact prox takes densities free of x; "
                             "this one reads the boundary point")
        (lo, hi), R, dq = data_range, PROX_VALUE_RANGE, PROX_NODE_STEP
        k_lo = math.floor(lo / dq) if lo < -R else 0
        k_hi = PROX_NODES - 1 + (math.ceil(hi / dq) if hi > R else 0)
        self.qs = qs = np.arange(k_lo, k_hi + 1) * dq + (-R)
        self.values = T = yosida_eval_many(d, ctx, tuple(boundary.x[0]), qs)
        self.slope = np.diff(T) / np.diff(qs)
        hull = _lower_hull(qs, T)
        self.hull_q = qs[hull]
        self.hull_slope = np.diff(T[hull]) / np.diff(self.hull_q)
        self.node_gap = np.maximum(T - np.interp(qs, self.hull_q, T[hull]), 0.0)   # T - C
        self.convex = self.node_gap.max() <= 1e-8 * max(1.0, np.abs(T).max())
        if not self.convex:
            warnings.warn("sampled contact transform is nonconvex; the solve's gap "
                          "need not close", NonconvexBoundaryTerm)
            # bounds of the convex runs: segments runs[i] .. runs[i + 1] - 1
            self.runs = np.append(np.flatnonzero(np.diff(self.slope, prepend=np.inf) < 0),
                                  len(self.slope))
        self._keys = {}

    def hat(self, v):
        return np.interp(v, self.qs, self.values)

    def prox(self, z, a):
        v = self._envelope_prox(z, a)
        return v if self.convex else self._run_prox(z, a, v)

    def _envelope_prox(self, z, a):
        q, b = self.hull_q, self.hull_slope
        if (key := a.tobytes()) not in self._keys:
            if len(self._keys) == 2:
                self._keys.clear()
            w, cls = np.unique(a, return_inverse=True)
            order = np.argsort(cls, kind="stable")
            self._keys[key] = order, np.cumsum(np.bincount(cls)), w[:, None] * b + q[:-1]
        order, ends, rows = self._keys[key]
        zs, j = z[order], np.empty(len(z), dtype=np.intp)
        for row, lo, hi in zip(rows, [0, *ends[:-1]], ends):
            j[order[lo:hi]] = row.searchsorted(zs[lo:hi], "right")
        np.clip(j - 1, 0, len(b) - 1, out=j)
        return np.clip(z - a * b[j], q[j], q[j + 1])

    def _run_prox(self, z, a, v):
        qs, b, runs = self.qs, self.slope, self.runs
        s = qs[runs[:-1]]
        r = np.sqrt(2.0 * a * np.interp(v, qs, self.node_gap))
        idx = np.flatnonzero(r > 0.0)
        first = np.maximum(s.searchsorted(v[idx] - r[idx], "right") - 1, 0)
        count = s.searchsorted(v[idx] + r[idx], "right") - first
        cell = np.repeat(idx, count)
        run = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count - first, count)
        # keys rise along the run of segments rs .. re - 1: a local minimum iff z
        # is in [K_rs, q_re + a b_{re-1}], or below (above) the first (last) run's
        zc, ac, rs, re = z[cell], a[cell], runs[run], runs[run + 1]
        keep = (qs[rs] + ac * b[rs] <= zc) | (run == 0)
        keep &= (zc <= qs[re] + ac * b[re - 1]) | (run == len(s) - 1)
        zc, ac, j, re, cell = zc[keep], ac[keep], rs[keep], re[keep], cell[keep]
        step = 1 << (int((re - j).max(initial=1)).bit_length() - 1)
        while step:                      # binary lifting to the last K_j <= z
            c = j + step
            ok = c < re
            ok &= qs[k := np.where(ok, c, j)] + ac * b[k] <= zc
            j = np.where(ok, c, j)
            step >>= 1
        w = np.clip(zc - ac * b[j], qs[j], qs[j + 1])
        o = ac * (self.values[j] + b[j] * (w - qs[j])) + 0.5 * (w - zc) ** 2
        order = np.lexsort((o, cell))
        best = order[np.flatnonzero(np.diff(cell[order], prepend=-1))]
        out = v.copy()
        out[cell[best]] = w[best]
        return out


class _ContactProx:
    """Per-cell resolvent  v = argmin_v  t W tau_hat(x, v) + (v - z)^2 / 2  on
    the probe cells, W being the cells' summed sample weights.  cells holds
    their flat lattice indices in row-major order, so apply and energy read a
    C-contiguous lattice array through its flat view (apply writes in place).
    transform holds tau_hat and its prox: density.closed_form (every builtin
    kind), else one _PLTable for every cell, so a density reading x raises.
    """

    def __init__(self, d, ctx, boundary, mask_shape, h, data_range=(0.0, 0.0)):
        W = np.bincount(boundary.probe, weights=boundary.w, minlength=math.prod(mask_shape))
        self.cells = np.flatnonzero(W)
        self.W = W[self.cells] / (h * h)   # scaled weights (energy divided by h^2)
        # raises UnboundedBelow when the slope exceeds sigma
        self.transform = closed_form(d, ctx.sigma) or _PLTable(d, ctx, boundary, data_range)

    def apply(self, u, t):
        if t <= 0:
            raise ValueError("t must be positive")
        flat = u.reshape(-1)
        flat[self.cells] = self.transform.prox(flat[self.cells], t * self.W)
        return u

    def energy(self, u):
        return float((self.W * self.transform.hat(u.reshape(-1)[self.cells])).sum())


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
    divided by h^2; in capillarity mode it is not the report total (see
    minimize_energy).

    residual_history[k - 1] is the un-relaxed step ||u~_k - u_{k-1}|| / t
    over the masked cells, t being the primal step and u_{k-1} the relaxed
    iterate.

    gap_history[k - 1] is the primal-dual gap P(u~_k) - D(xi~_k) (see
    _dual_value) at iteration k's prox outputs, on the recorded rows.  xi~_k
    is feasible, so weak duality makes it >= 0 and a bound on P(u~_k) - min
    P, and the last row (gap) certifies the returned pair; gap_relative is
    gap / max(1, |P(u)|).  A nonconvex table's D bounds the convexified
    problem's minimum, so its gap need not close.

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
    gap_history: np.ndarray
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
    def gap(self) -> float:
        return float(self.gap_history[-1])

    @property
    def gap_relative(self) -> float:
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
    'capillarity' raises ValueError when given one.  A GridField f must
    live on grid itself, else MaskMismatch.

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
    The scaled objective P(u~) and the gap P(u~) - D(xi~) (SolverResult.gap)
    are recorded on the rows SolverResult names (grad u~ is taken on every
    row, as the dual step reads it).  One rule stops every solve: a
    residual <= tol that the gap confirms, gap <= tol max(1, |P(u~)|), or
    iters iterations (a nonconvex table's gap need not close).  It returns
    that iteration's prox outputs (u~, xi~), with the energy report
    evaluated by the grid functionals; xi~ is a prox output, so |xi~| <=
    dual_bound, which a relaxed xi_k need not keep.
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
    h, mask, ok, boundary = grid.h, grid.mask, grid.neighbor_masks(), grid.boundary()

    if area_mode:
        ctx = YosidaContext(sigma=1.0)
        d = linear(float(nu))
    elif ctx is None:
        raise ValueError("ctx (with sigma) is required unless bulk='capillarity'")
    elif d is None:
        d = linear(0.0)
    sigma = ctx.sigma

    f_arr = np.zeros(mask.shape)
    if isinstance(f, GridField):
        if f.grid is not grid:
            raise MaskMismatch("f is not a field on the solve's grid")
        f = f.values
    if f is not None:
        f_arr = np.broadcast_to(np.asarray(f, dtype=float), mask.shape).copy()
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
    en_hist, gap_hist = np.full((2, iters), np.nan)
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
        if record:
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
        energy_history=en_hist[:n], gap_history=gap_hist[:n],
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
    W)^2 / 4), the contact transform's exact prox."""
    p = np.negative(kxi)
    g = p * 0.25
    g += f_arr
    g *= p                               # G*(p) off the probe cells
    cells, W = contact.cells, contact.W
    pc, fc = p.reshape(-1)[cells], f_arr.reshape(-1)[cells]
    v = contact.transform.prox(fc + 0.5 * pc, 0.5 * W)
    g.reshape(-1)[cells] = pc * v - (v - fc) ** 2 - W * contact.transform.hat(v)
    dual = -float(np.dot(g.ravel(), inside.ravel()))
    if area_mode:
        e = np.subtract(1.0, xi[0] * xi[0])
        e -= xi[1] * xi[1]
        np.sqrt(np.maximum(e, 0.0, out=e), out=e)
        dual += beta * float(np.dot(e.ravel(), inside.ravel()))
    return dual
