"""Surface contact densities tau(x, p) and their sigma-Yosida transform.

A density carries its lower-bound data: nonnegative c(x), L(x) with
tau(x, p) >= -c(x) - L(x)|p|.  The transform

    tau_hat(x, p) = inf_q { tau(x, q) + sigma |p - q| }

is the greatest sigma-Lipschitz function below tau(x, .); it is computed in
closed form for the builtin kinds and by a certified brute-force grid search
otherwise.  The module also provides the Caratheodory upper envelope T and
the decreasing Lipschitz approximation ladder tau_k used for densities that
are only upper semicontinuous in p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprgrammar
from .errors import DegenerateMargin, UnboundedBelow, UnsupportedArity

KINDS = ("linear", "absolute", "quadratic", "tabulated", "expression", "custom")

#: discontinuous densities are clamped at this sentinel instead of -inf
NEG_SENTINEL = -1e30

#: slope threshold for declaring a descent direction at the search boundary
DESCENT_MARGIN = 1e-6


def _pnorm(p, value_dim=1):
    """|p| for batches: elementwise abs when M = 1, Euclidean row norms else."""
    p = np.asarray(p, dtype=float)
    if value_dim == 1 or p.ndim == 0:
        return np.abs(p)
    return np.sqrt(np.sum(p * p, axis=-1))


@dataclass(frozen=True)
class SurfaceDensity:
    """Contact energy integrand tau(x, p) with lower-bound data (c, L).

    kind selects the formula: 'linear' is lam * sum(p_i), 'absolute' is
    lam * |p|, 'quadratic' is |p|^2; 'tabulated' interpolates sample points
    (scalar p only); 'expression' evaluates a parsed DSL tree over p, x1, x2;
    'custom' wraps a callable (used for step densities and the approximation
    ladder).  c and L may be constants or callables of the boundary point.
    """

    kind: str
    lam: float | None = None
    c: object = 0.0
    L: object = None
    regularity: str = "caratheodory"
    value_dim: int = 1
    table: tuple | None = None          # (p_grid, values, interp) for 'tabulated'
    expr_text: str | None = None
    fn: object = None                   # callable(x, p_array) for 'custom'
    lower_bound_estimated: bool = False
    _ast: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind in ("linear", "absolute", "quadratic") and self.value_dim < 1:
            raise ValueError("value_dim must be >= 1")
        if self.kind in ("tabulated", "expression") and self.value_dim != 1:
            raise UnsupportedArity(f"{self.kind} densities support M = 1 only")
        if self.L is None:
            object.__setattr__(self, "L", self._default_L())
        if self.kind == "expression" and self._ast is None:
            object.__setattr__(self, "_ast", exprgrammar.parse_expression(self.expr_text))

    def _default_L(self):
        # slope of the default lower bound -c - L|p|; |lam| for the two
        # 1-homogeneous kinds, 0 for quadratic (bounded below by 0)
        if self.kind == "linear":
            return abs(self.lam) * math.sqrt(self.value_dim)
        if self.kind == "absolute":
            return abs(self.lam)
        if self.kind == "quadratic":
            return 0.0
        return 0.0

    # -- lower-bound data -------------------------------------------------------

    def c_at(self, x):
        return float(self.c(x)) if callable(self.c) else float(self.c)

    def L_at(self, x):
        return float(self.L(x)) if callable(self.L) else float(self.L)

    @property
    def L_sup(self):
        """Declared sup of L; callables must expose .sup or be sampled by the caller."""
        if callable(self.L):
            sup = getattr(self.L, "sup", None)
            if sup is None:
                raise ValueError("callable L needs a .sup attribute")
            return float(sup)
        return float(self.L)

    # -- evaluation ---------------------------------------------------------------

    def eval_many(self, x, P):
        """Vectorized tau(x, P[i]); P has shape (n,) for M = 1, (n, M) else."""
        P = np.asarray(P, dtype=float)
        if self.kind == "linear":
            return self.lam * (P if P.ndim <= 1 else P.sum(axis=-1))
        if self.kind == "absolute":
            return self.lam * _pnorm(P, self.value_dim)
        if self.kind == "quadratic":
            return _pnorm(P, self.value_dim) ** 2
        if self.kind == "tabulated":
            grid, vals, interp = self.table
            if interp == "linear":
                return np.interp(P, grid, vals)
            idx = np.clip(np.searchsorted(grid, P, side="right") - 1, 0, len(grid) - 1)
            return np.asarray(vals)[idx]
        if self.kind == "expression":
            x1, x2 = (float(x[0]), float(x[1])) if x is not None else (0.0, 0.0)
            out = exprgrammar.eval_ast(self._ast, P, x1, x2)
            return np.broadcast_to(np.asarray(out, dtype=float), P.shape).copy() \
                if np.ndim(out) == 0 else np.asarray(out, dtype=float)
        return np.asarray(self.fn(x, P), dtype=float)

    # -- serialization ---------------------------------------------------------------

    def spec_text(self):
        if self.kind in ("linear", "absolute"):
            return f"{self.kind}:{self.lam!r}"
        if self.kind == "quadratic":
            return "quadratic"
        if self.kind == "expression":
            return self.expr_text
        raise ValueError(f"{self.kind} densities have no text form")

    @staticmethod
    def from_callable(fn, c=0.0, L=0.0, regularity="caratheodory"):
        return SurfaceDensity(kind="custom", fn=fn, c=c, L=L, regularity=regularity)


def linear(lam, value_dim=1, c=0.0, L=None):
    return SurfaceDensity(kind="linear", lam=float(lam), value_dim=value_dim, c=c, L=L)


def absolute(lam, value_dim=1, c=0.0, L=None):
    return SurfaceDensity(kind="absolute", lam=float(lam), value_dim=value_dim, c=c, L=L)


def quadratic(value_dim=1, c=0.0, L=None):
    return SurfaceDensity(kind="quadratic", value_dim=value_dim, c=c, L=L)


def tabulated(p_grid, values, interp="linear", c=0.0, L=0.0, regularity=None):
    """Tabulated scalar density; interp 'linear' (Caratheodory) or 'pc-left'
    (piecewise constant on [p_i, p_{i+1}), can encode discontinuities)."""
    p_grid = np.asarray(p_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if p_grid.ndim != 1 or p_grid.shape != values.shape or len(p_grid) < 2:
        raise ValueError("need matching 1-D p_grid and values with >= 2 samples")
    if np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must be strictly increasing")
    if interp not in ("linear", "pc-left"):
        raise ValueError("interp must be 'linear' or 'pc-left'")
    if regularity is None:
        regularity = "caratheodory" if interp == "linear" else "normal-integrand"
    return SurfaceDensity(kind="tabulated", table=(p_grid, values, interp),
                          c=c, L=L, regularity=regularity)


def expression(text, c=None, L=None, sample_range=8.0, sample_n=4001):
    """Compile a DSL expression; missing (c, L) are estimated by sampling and
    the estimate is flagged on the returned density."""
    ast = exprgrammar.parse_expression(text)
    estimated = c is None or L is None
    if estimated:
        ps = np.linspace(-sample_range, sample_range, sample_n)
        vals = exprgrammar.eval_ast(ast, ps, 0.0, 0.0)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), ps.shape)
        if L is None:
            big = np.abs(ps) >= 0.5 * sample_range
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.where(np.abs(ps[big]) > 0, -vals[big] / np.abs(ps[big]), 0.0)
            L = float(max(0.0, slopes.max()))
            L = 0.0 if L < 1e-12 else L * (1 + 1e-9)
        if c is None:
            c = float(max(0.0, (-vals - L * np.abs(ps)).max()))
    return SurfaceDensity(kind="expression", expr_text=text, c=c, L=L,
                          lower_bound_estimated=estimated, _ast=ast)


def eval_density(d: SurfaceDensity, x, p, dom=None, tol=None):
    """tau(x, p) at a single boundary point; rejects non-finite p and, when a
    domain is supplied, boundary points farther than tol from its boundary."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    if d.value_dim == 1:
        if p.ndim != 0 and p.shape != (1,):
            raise ValueError("scalar density expects scalar p")
        p = p.reshape(())
    elif p.shape != (d.value_dim,):
        raise ValueError(f"density expects vectors of length {d.value_dim}")
    if dom is not None:
        x = np.asarray(x, dtype=float)
        dist, _, _ = dom.boundary_distance(x[None, :])
        limit = tol if tol is not None else 1e-9 * max(1.0, dom.perimeter)
        if dist[0] > limit:
            raise ValueError(f"x is {dist[0]:.3g} away from the boundary (tol {limit:.3g})")
    return float(d.eval_many(x, p[None])[0])


@dataclass(frozen=True)
class YosidaContext:
    """Parameters for the inf-convolution: TV weight sigma, optional search
    radius override, and the inner q-grid step (defaults to R/2000)."""

    sigma: float
    search_radius: float | None = None
    q_grid_step: float | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.search_radius is not None and self.search_radius <= 0:
            raise ValueError("search_radius must be positive")
        if self.q_grid_step is not None and self.q_grid_step <= 0:
            raise ValueError("q_grid_step must be positive")


@dataclass
class LowerBoundReport:
    holds: bool
    worst_violation: float
    worst_sample: tuple | None


def verify_lower_bound(d: SurfaceDensity, samples, tol=1e-9) -> LowerBoundReport:
    """Check tau(x,p) + c(x) + L(x)|p| >= -tol over (x, p) sample pairs.

    worst_violation is the most negative slack encountered (0 if the bound
    holds with margin everywhere).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("sample_spec must be nonempty")
    worst = math.inf
    worst_at = None
    for x, ps in samples:
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        slack = d.eval_many(x, ps) + d.c_at(x) + d.L_at(x) * _pnorm(ps, d.value_dim)
        i = int(np.argmin(slack))
        if slack[i] < worst:
            worst = float(slack[i])
            worst_at = (x, float(np.atleast_1d(ps)[i]) if ps.ndim == 1 else ps[i])
    return LowerBoundReport(holds=bool(worst >= -tol),
                            worst_violation=min(worst, 0.0), worst_sample=worst_at)


def yosida_radius(d: SurfaceDensity, sigma, x, p, eta_cap=math.inf) -> float:
    """Search radius R such that any near-optimal q in the inf-convolution at
    (x, p) satisfies |q| <= R:

        R = (c(x) + tau(x,p) + 1 + 2*sigma*|p|) / (sigma - sup L),

    clamped below by |p| + 1.  eta_cap optionally caps the c(x) contribution.
    Requires sup L strictly below sigma.
    """
    margin = 1e-9 * max(1.0, sigma)
    Ls = d.L_sup
    if sigma - Ls < max(margin, 1e-12):
        raise DegenerateMargin(f"sigma - sup L = {sigma - Ls:.3g}; widen sigma or use closed forms")
    pn = float(_pnorm(p, d.value_dim))
    taup = float(d.eval_many(x, np.asarray([p], dtype=float))[0])
    num = min(d.c_at(x), eta_cap) + taup + 1.0 + 2.0 * sigma * pn
    return max(num / (sigma - Ls), pn + 1.0)


def _closed_form_yosida(d, sigma, p):
    """Vectorized closed form for builtin kinds; None when not available."""
    pn = _pnorm(p, d.value_dim)
    if d.kind == "linear":
        lip = abs(d.lam) * math.sqrt(d.value_dim)
        if lip > sigma * (1 + 1e-12):
            raise UnboundedBelow(f"linear density slope {lip} exceeds sigma {sigma}")
        return np.asarray(d.lam * (np.asarray(p) if np.ndim(p) <= 1 else np.sum(p, axis=-1)),
                          dtype=float)
    if d.kind == "absolute":
        if d.lam < -sigma * (1 + 1e-12):
            raise UnboundedBelow(f"absolute density slope {d.lam} below -sigma")
        return np.asarray(min(d.lam, sigma) * pn, dtype=float)
    if d.kind == "quadratic":
        small = pn <= sigma / 2.0
        return np.asarray(np.where(small, pn ** 2, sigma * pn - sigma ** 2 / 4.0), dtype=float)
    return None


def _closed_form_argmin(d, sigma, t):
    """Per-value minimizers q of tau(q) + sigma |t - q| for builtin kinds;
    None when not available."""
    if d.kind == "linear" and abs(d.lam) * math.sqrt(d.value_dim) <= sigma:
        return t.copy()
    if d.kind == "absolute":
        return t.copy() if d.lam <= sigma else np.zeros_like(t)
    if d.kind == "quadratic":
        mag = np.abs(t)
        return np.where(mag <= sigma / 2.0, t, np.sign(t) * sigma / 2.0)
    return None


def _brute_force_yosida(d, ctx, x, p_values, radius=None):
    """Grid minimization of q -> tau(x,q) + sigma|p-q| for scalar p values.

    All p values share one q-grid, centered so every p lies on a node (hence
    sigma-Lipschitz densities are exact fixed points); only the rows of the
    P x q matrix are chunked, to bound memory.  A descent slope
    <= -DESCENT_MARGIN at the search boundary raises UnboundedBelow.
    """
    sigma = ctx.sigma
    P = np.atleast_1d(np.asarray(p_values, dtype=float))
    if radius is None:
        radius = ctx.search_radius
    if radius is None:
        radius = max(yosida_radius(d, sigma, x, float(pi)) for pi in P)
    step = ctx.q_grid_step if ctx.q_grid_step is not None else radius / 2000.0
    step = min(step, radius / 8.0)
    lo = float(P.min()) - radius
    hi = float(P.max()) + radius
    # anchor the grid on the p-values: union of a coarse cover and exact p nodes
    n = int(math.ceil((hi - lo) / step)) + 1
    q = np.unique(np.concatenate([np.linspace(lo, hi, n), P]))
    tau_q = d.eval_many(x, q)
    tau_q = np.where(np.isfinite(tau_q), tau_q, NEG_SENTINEL)
    # boundary descent test on the envelope for the extreme p values
    for j, pi in ((0, P.min()), (-1, P.max())):
        gi = tau_q + sigma * np.abs(pi - q)
        hstep = q[1] - q[0] if len(q) > 1 else step
        if len(q) > 2:
            left_slope = (gi[0] - gi[1]) / (q[1] - q[0])
            right_slope = (gi[-1] - gi[-2]) / (q[-1] - q[-2])
            if left_slope <= -DESCENT_MARGIN and gi[0] <= gi.min() + sigma * hstep:
                raise UnboundedBelow("descent direction active at left search boundary")
            if right_slope <= -DESCENT_MARGIN and gi[-1] <= gi.min() + sigma * hstep:
                raise UnboundedBelow("descent direction active at right search boundary")
    out = np.empty(len(P))
    rows = max(1, int(4e6 // len(q)))
    for i in range(0, len(P), rows):
        g = np.subtract.outer(P[i:i + rows], q)
        np.abs(g, out=g)
        g *= sigma
        g += tau_q
        out[i:i + rows] = g.min(axis=1)
    return out


def yosida_eval(d: SurfaceDensity, ctx: YosidaContext, x, p, force_bruteforce=False):
    """tau_hat(x, p) = inf_q tau(x, q) + sigma|p - q|.

    Builtin kinds use closed forms; everything else is minimized on a q-grid
    of radius yosida_radius around p.  Raises UnboundedBelow when the inf is
    -infinity (slope of tau beyond sigma at infinity).
    """
    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 0 or (d.value_dim > 1 and p_arr.ndim == 1)
    if not force_bruteforce:
        cf = _closed_form_yosida(d, ctx.sigma, p_arr)
        if cf is not None:
            return float(cf) if scalar else cf
    if d.value_dim != 1:
        raise UnsupportedArity("brute-force transform supports M = 1 only")
    out = _brute_force_yosida(d, ctx, x, p_arr)
    return float(out[0]) if scalar else out


def yosida_eval_many(d, ctx, x, P, force_bruteforce=False):
    """Vectorized tau_hat over an array of scalar p values (shared q-grid)."""
    P = np.asarray(P, dtype=float)
    if not force_bruteforce:
        cf = _closed_form_yosida(d, ctx.sigma, P)
        if cf is not None:
            return cf
    return _brute_force_yosida(d, ctx, x, P.ravel()).reshape(P.shape)


# -- upper envelope and the Lipschitz approximation ladder ------------------------

BALL_GRID_PER_UNIT = 10_000


def _ball_sup(d, x, j):
    """max(sup tau(x, q) over |q| <= j, 0) on a dense 1-D grid (includes the
    endpoints; M = 2 uses a coarser product grid).  Memoized per density."""
    cache = getattr(d, "_sup_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(d, "_sup_cache", cache)
    xk = (None if x is None else (round(float(np.atleast_1d(x)[0]), 12),
                                  round(float(np.atleast_1d(x)[-1]), 12)))
    key = (j, xk)
    if key in cache:
        return cache[key]
    if d.value_dim == 1:
        n = max(3, int(2 * j * BALL_GRID_PER_UNIT) + 1)
        q = np.linspace(-j, j, n)
        out = max(float(d.eval_many(x, q).max()), 0.0)
    elif d.value_dim == 2:
        n = 201
        g = np.linspace(-j, j, n)
        Q1, Q2 = np.meshgrid(g, g)
        pts = np.column_stack([Q1.ravel(), Q2.ravel()])
        pts = pts[_pnorm(pts, 2) <= j + 1e-12]
        out = max(float(d.eval_many(x, pts).max()), 0.0)
    else:
        raise UnsupportedArity("upper envelope supports M <= 2")
    cache[key] = out
    return out


def _psi_weights(r):
    """Active (j, psi_j(r)) pairs of the radial hat partition of unity:
    psi_1 is 1 on [0,1] and falls to 0 at 2; psi_j (j >= 2) is the unit hat
    on [j-1, j+1]."""
    r = float(r)
    out = []
    if r <= 1.0:
        return [(1, 1.0)]
    j = int(math.floor(r))
    lo_w = 1.0 - (r - j)
    if lo_w > 0:
        out.append((j, lo_w))
    if r - j > 0:
        out.append((j + 1, r - j))
    elif not out:
        out.append((j, 1.0))
    return out


def upper_envelope_T(d: SurfaceDensity, x, p) -> float:
    """Caratheodory upper envelope T(x, p) = sum_j M_{j+2}(x) psi_j(|p|) with
    M_j(x) = max(sup_{|q| <= j} tau(x, q), 0); satisfies T >= max(tau, 0)."""
    r = float(_pnorm(p, d.value_dim))
    return sum(w * _ball_sup(d, x, j + 2) for j, w in _psi_weights(r) if w > 0)


def lip_upper_approx_many(d: SurfaceDensity, k: int, x, P):
    """Vectorized tau_k over an array of scalar p values (shared q-grid)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if d.value_dim != 1:
        raise UnsupportedArity("approximation ladder supports M = 1 only")
    P = np.atleast_1d(np.asarray(P, dtype=float))
    T_P = _envelope_values(d, x, P)
    tau_P = d.eval_many(x, P)
    # search radius from the lower-bound logic applied to -t = T - tau >= 0
    neg_t = np.where(np.isfinite(tau_P), T_P - tau_P, 1.0)
    pmax = float(np.abs(P).max())
    R = max(float(neg_t.max() + 1.0 + 2.0 * k * pmax) / k, pmax + 1.0)
    lo, hi = float(P.min()) - R, float(P.max()) + R
    n = min(max(4001, int(math.ceil((hi - lo) / (R / 4000.0))) + 1), 200_001)
    q = np.unique(np.concatenate([np.linspace(lo, hi, n), P]))
    tau_q = d.eval_many(x, q)
    t_q = np.where(np.isfinite(tau_q), tau_q, NEG_SENTINEL) - _envelope_values(d, x, q)
    t_k = (t_q[None, :] - k * np.abs(P[:, None] - q[None, :])).max(axis=1)
    return t_k + T_P


def lip_upper_approx(d: SurfaceDensity, k: int, x, p) -> float:
    """k-th member of the decreasing Lipschitz upper ladder:

        tau_k = t_k + T,   t_k(x, p) = sup_q { t(x, q) - k|p - q| },

    with t = tau - T <= 0.  tau_k decreases pointwise to tau as k grows when
    tau(x, .) is upper semicontinuous.
    """
    return float(lip_upper_approx_many(d, k, x, np.asarray([p], dtype=float))[0])


def _envelope_values(d, x, q):
    # T is piecewise linear in |p| with knots at the integers (and 0), so
    # evaluating on the half-integer lattice and interpolating is exact
    lo, hi = float(np.min(q)), float(np.max(q))
    ks = np.arange(math.floor(lo) - 1, math.ceil(hi) + 2, 0.5)
    T_k = np.array([upper_envelope_T(d, x, ki) for ki in ks])
    return np.interp(q, ks, T_k)


def step_density(low=-1.0, at=0.0, regularity="normal-integrand"):
    """Upper-semicontinuous step: 0 for p <= at, `low` for p > at."""
    def fn(x, P):
        P = np.asarray(P, dtype=float)
        return np.where(P > at, low, 0.0)
    return SurfaceDensity.from_callable(fn, c=max(0.0, -low), L=0.0, regularity=regularity)
