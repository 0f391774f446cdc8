"""Surface contact densities tau(x, p) and their sigma-Yosida transform.

A density carries its lower-bound data: nonnegative c(x), L(x) with
tau(x, p) >= -c(x) - L(x)|p|.  The transform

    tau_hat(x, p) = inf_q { tau(x, q) + sigma |p - q| }

is the greatest sigma-Lipschitz function below tau(x, .).  closed_form holds
the builtin kinds' closed forms for it, its minimizer and its resolvent;
every other kind goes through one search: exact over the kinks of a density
piecewise linear in p, else a certified grid minimum.  The
module also provides the Caratheodory upper envelope T and the decreasing
Lipschitz approximation ladder tau_k used for densities that are only upper
semicontinuous in p, whose sup-convolution runs through the same grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exprgrammar
from .errors import DegenerateMargin, SchemaError, UnboundedBelow

KINDS = ("linear", "absolute", "quadratic", "tabulated", "expression", "custom")

#: discontinuous densities are clamped at this sentinel instead of -inf
NEG_SENTINEL = -1e30

#: slope threshold for declaring a descent direction at the search boundary
DESCENT_MARGIN = 1e-6

#: elements (rows x nodes) in one chunk of the per-sample transform search
ROW_CHUNK = 2 ** 15

#: samples in one chunk of the per-sample kink search; a chunk whose kinks
#: outgrow ROW_CHUNK elements (64 a sample) sends the search to the grid
KINK_ROWS = ROW_CHUNK // 64


@dataclass(frozen=True)
class SurfaceDensity:
    """Contact energy integrand tau(x, p) of a scalar trace value p, with
    lower-bound data (c, L).

    kind selects the formula: 'linear' is lam * p, 'absolute' is lam * |p|,
    'quadratic' is p^2; 'tabulated' interpolates sample points;
    'expression' evaluates a parsed DSL tree over p, x1, x2;
    'custom' wraps a callable (used for step densities and the approximation
    ladder).  c and L may be constants or callables of the boundary point.
    """

    kind: str
    lam: float | None = None
    c: object = 0.0
    L: object = None
    table: tuple | None = None          # (p_grid, values, interp) for 'tabulated'
    expr_text: str | None = None
    fn: object = None                   # callable(x, p_array) for 'custom'
    lower_bound_estimated: bool = False
    _ast: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.L is None:
            object.__setattr__(self, "L", self._default_L())
        if self.kind == "expression" and self._ast is None:
            object.__setattr__(self, "_ast", exprgrammar.parse_expression(self.expr_text))

    def _default_L(self):
        # slope of the default lower bound -c - L|p|; |lam| for the two
        # 1-homogeneous kinds, 0 for quadratic (bounded below by 0)
        if self.kind in ("linear", "absolute"):
            return abs(self.lam)
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
        """Vectorized tau(x, p) over an array P of scalar values p; x is one
        point or one per value (x[..., 0] broadcasts against P)."""
        P = np.asarray(P, dtype=float)
        if self.kind == "linear":
            return self.lam * P
        if self.kind == "absolute":
            return self.lam * np.abs(P)
        if self.kind == "quadratic":
            return np.abs(P) ** 2
        if self.kind == "tabulated":
            grid, vals, interp = self.table
            if interp == "linear":
                return np.interp(P, grid, vals)
            idx = np.clip(np.searchsorted(grid, P, side="right") - 1, 0, len(grid) - 1)
            return np.asarray(vals)[idx]
        if self.kind == "expression":
            x1, x2 = (0.0, 0.0) if x is None else np.moveaxis(np.asarray(x, dtype=float), -1, 0)
            out = np.asarray(exprgrammar.eval_ast(self._ast, P, x1, x2), dtype=float)
            return out if out.shape == P.shape else np.broadcast_to(out, P.shape).copy()
        return np.asarray(self.fn(x, P), dtype=float)

    @property
    def depends_on_x(self):
        """Whether tau reads x: expressions naming x1 or x2, and custom callables."""
        if self.kind == "expression":
            return not exprgrammar.ast_vars(self._ast).isdisjoint(("x1", "x2"))
        return self.kind == "custom"

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
    def from_callable(fn, c=0.0, L=0.0):
        return SurfaceDensity(kind="custom", fn=fn, c=c, L=L)


def linear(lam, c=0.0, L=None):
    return SurfaceDensity(kind="linear", lam=float(lam), c=c, L=L)


def absolute(lam, c=0.0, L=None):
    return SurfaceDensity(kind="absolute", lam=float(lam), c=c, L=L)


def quadratic(c=0.0, L=None):
    return SurfaceDensity(kind="quadratic", c=c, L=L)


def tabulated(p_grid, values, interp="linear", c=0.0, L=0.0):
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
    return SurfaceDensity(kind="tabulated", table=(p_grid, values, interp), c=c, L=L)


def expression(text, c=None, L=None):
    """Compile a DSL expression; missing (c, L) are estimated by sampling p on
    [-8, 8] at one point x and the estimate is flagged on the returned
    density.  An expression naming x1 or x2 must declare both: SchemaError
    at the first missing key."""
    ast = exprgrammar.parse_expression(text)
    estimated = c is None or L is None
    if estimated and not exprgrammar.ast_vars(ast).isdisjoint(("x1", "x2")):
        key = "density_c" if c is None else "density_L"
        raise SchemaError(f"{text!r} depends on x1 or x2, so give {key}: sampling p "
                          "at one point cannot bound it for every x", location=key)
    if estimated:
        ps = np.linspace(-8.0, 8.0, 4001)
        vals = exprgrammar.eval_ast(ast, ps, 0.0, 0.0)
        vals = np.broadcast_to(np.asarray(vals, dtype=float), ps.shape)
        if L is None:
            big = np.abs(ps) >= 4.0
            with np.errstate(divide="ignore", invalid="ignore"):
                slopes = np.where(np.abs(ps[big]) > 0, -vals[big] / np.abs(ps[big]), 0.0)
            L = float(max(0.0, slopes.max()))
            L = 0.0 if L < 1e-12 else L * (1 + 1e-9)
        if c is None:
            c = float(max(0.0, (-vals - L * np.abs(ps)).max()))
    return SurfaceDensity(kind="expression", expr_text=text, c=c, L=L,
                          lower_bound_estimated=estimated, _ast=ast)


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


def verify_lower_bound(d: SurfaceDensity, samples, tol=1e-9) -> LowerBoundReport:
    """Check tau(x,p) + c(x) + L(x)|p| >= -tol over (x, p) sample pairs.

    worst_violation is the most negative slack encountered (0 if the bound
    holds with margin everywhere).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("sample_spec must be nonempty")
    worst = math.inf
    for x, ps in samples:
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        slack = d.eval_many(x, ps) + d.c_at(x) + d.L_at(x) * np.abs(ps)
        worst = min(worst, float(slack.min()))
    return LowerBoundReport(holds=bool(worst >= -tol), worst_violation=min(worst, 0.0))


def _refuse_degenerate_margin(d, sigma):
    """sup L; raises DegenerateMargin unless it lies strictly below sigma."""
    Ls = d.L_sup
    if sigma - Ls < max(1e-9 * max(1.0, sigma), 1e-12):
        raise DegenerateMargin(f"sigma - sup L = {sigma - Ls:.3g}; widen sigma or use closed forms")
    return Ls


def yosida_radius(d: SurfaceDensity, sigma, x, p) -> float:
    """Search radius R such that any near-optimal q in the inf-convolution at
    (x, p) satisfies |q| <= R:

        R = (c(x) + tau(x,p) + 1 + 2*sigma*|p|) / (sigma - sup L),

    clamped below by |p| + 1.  p may also be an array of values, at one x or
    at its samples' points x (n, 2); the largest of their radii is returned.
    Requires sup L strictly below sigma.
    """
    Ls = _refuse_degenerate_margin(d, sigma)
    P = np.asarray(p, dtype=float).reshape(-1)
    pn = np.abs(P)
    c = np.asarray(d.c(x) if callable(d.c) else d.c, dtype=float)
    num = c + d.eval_many(x, P) + 1.0 + 2.0 * sigma * pn
    return float(np.max(np.maximum(num / (sigma - Ls), pn + 1.0)))


@dataclass(frozen=True)
class ClosedForm:
    """Closed forms of the sigma-Yosida transform of a builtin density.

    hat(p) is tau_hat(p); argmin(t) is a minimizer q of tau(q) + sigma|t - q|
    for each value t; prox(z, a) is argmin_v a tau_hat(v) + (v - z)^2 / 2 per
    value.
    """

    hat: object
    argmin: object
    prox: object


def _absolute_prox(mu, z, a):
    # soft threshold; for mu < 0 the objective is nonconvex and the minimizer
    # moves away from 0 (to +a|mu| at z = 0)
    if mu >= 0:
        return np.sign(z) * np.maximum(np.abs(z) - a * mu, 0.0)
    return z + a * (-mu) * np.where(z == 0, 1.0, np.sign(z))


def _huber_prox(sigma, z, a):
    # tau_hat is the Huber function v^2 on |v| <= sigma / 2 and sigma |v| -
    # sigma^2 / 4 beyond: its resolvent scales z inside the image of that
    # interval and shifts it by a sigma outside
    inner = np.abs(z) <= (1.0 + 2.0 * a) * sigma / 2.0
    return np.where(inner, z / (1.0 + 2.0 * a), z - a * sigma * np.sign(z))


def closed_form(d: SurfaceDensity, sigma) -> ClosedForm | None:
    """The closed forms of tau_hat for the builtin kinds, None for every other
    kind.  Raises UnboundedBelow when tau_hat is -infinity, i.e. when tau
    falls faster than sigma|p| in some direction."""
    if d.kind == "linear":
        lam = d.lam
        if abs(lam) > sigma * (1 + 1e-12):
            raise UnboundedBelow(f"linear density slope {abs(lam)} exceeds sigma {sigma}")
        return ClosedForm(
            hat=lambda p: np.asarray(lam * np.asarray(p), dtype=float),
            argmin=lambda t: t.copy(),
            prox=lambda z, a: z - a * lam)
    if d.kind == "absolute":
        if d.lam < -sigma * (1 + 1e-12):
            raise UnboundedBelow(f"absolute density slope {d.lam} below -sigma")
        mu = min(d.lam, sigma)
        return ClosedForm(
            hat=lambda p: np.asarray(mu * np.abs(np.asarray(p, dtype=float)), dtype=float),
            argmin=lambda t: t.copy() if d.lam <= sigma else np.zeros_like(t),
            prox=lambda z, a: _absolute_prox(mu, z, a))
    if d.kind == "quadratic":
        def hat(p):
            pn = np.abs(np.asarray(p, dtype=float))
            return np.asarray(np.where(pn <= sigma / 2.0, pn ** 2, sigma * pn - sigma ** 2 / 4.0),
                              dtype=float)
        return ClosedForm(
            hat=hat,
            argmin=lambda t: np.where(np.abs(t) <= sigma / 2.0, t, np.sign(t) * sigma / 2.0),
            prox=lambda z, a: _huber_prox(sigma, z, a))
    return None


def _finite_or_sentinel(tau):
    """tau values with NaN and +-inf read as NEG_SENTINEL, as every search does."""
    return np.where(np.isfinite(tau), tau, NEG_SENTINEL)


def _near(a, m):
    """Where a lies within rounding, 1e-13 (1 + |m|), of the minimum m."""
    return a <= m + 1e-13 * (1.0 + np.abs(m))


def _running_min(a):
    """Running minimum of a and the last index within rounding of it."""
    m = np.minimum.accumulate(a)
    return m, np.maximum.accumulate(np.where(_near(a, m), np.arange(len(a)), 0))


def _cone_envelope(f, q, s):
    """Lower envelope min_j f_j + s|q_i - q_j| of cones on the sorted nodes q
    and the index j attaining it: the smaller of prefix-min(f - s q) + s q and
    suffix-min(f + s q) - s q, exact on the nodes in O(n) (Felzenszwalb &
    Huttenlocher, Distance Transforms of Sampled Functions).  Of the nodes
    within rounding of the minimum, j is the one nearest q_i.  The sup form
    max_j f_j - s|q_i - q_j| is minus the envelope of -f."""
    sq = s * q
    left, left_at = _running_min(f - sq)
    right, right_at = _running_min((f + sq)[::-1])
    left += sq
    right = right[::-1] - sq
    right_at = len(q) - 1 - right_at[::-1]
    env = np.minimum(left, right)
    tie = _near(np.maximum(left, right), env)
    take = np.where(tie, q - q[left_at] <= q[right_at] - q, left <= right)
    return env, np.where(take, left_at, right_at)


def _brute_force_yosida(d, ctx, x, p_values):
    """Minimum of q -> tau(x,q) + sigma|p-q| per scalar p, a q attaining it,
    and the search that ran: 'kinks' or 'grid'.

    A density piecewise linear in q (_kinks) is searched exactly: the map is
    affine between the kinks of tau and p, so it attains a bounded minimum at
    one of them, and search_radius and q_grid_step go unread.  Every other
    density, and one whose kinks outgrow a chunk, takes a grid minimum in
    which every p is a node.  A density that reads x, at the samples' points
    x (n, 2), is searched per sample by _row_search: on a row of its p and
    kinks, KINK_ROWS samples at a time, or on its row p_i + k step,
    |k step| <= radius, ROW_CHUNK elements at a time.  Else every p shares
    one node set, the kinks and the p or a q-grid, searched by _node_search.
    On every path a tie within rounding goes to the candidate nearest p."""
    sigma = ctx.sigma
    P = np.atleast_1d(np.asarray(p_values, dtype=float))
    if ctx.search_radius is None:       # the refusal yosida_radius makes
        _refuse_degenerate_margin(d, sigma)
    per_sample = np.ndim(x) == 2 and d.depends_on_x
    x_shared = None if np.ndim(x) == 2 else x      # the point every p shares
    if per_sample:
        found = _row_search(d, sigma, x, P, KINK_ROWS,
                            lambda xs, ps: _kink_rows(d, xs, ps), exact=True)
    else:
        kinks = _kinks(d, x_shared)
        found = None if kinks is None else _node_search(
            d, sigma, x_shared, P, _kink_nodes(kinks[0], P), exact=True)
    if found is not None:
        return (*found, "kinks")
    radius = ctx.search_radius or yosida_radius(d, sigma, x, P)
    step = min(ctx.q_grid_step or radius / 2000.0, radius / 8.0)
    if per_sample:
        k = math.ceil(radius / step)
        offsets = np.arange(-k, k + 1) * step
        dist = np.abs(offsets)                 # |p_i - q| on every row
        found = _row_search(d, sigma, x, P, max(1, ROW_CHUNK // len(offsets)),
                            lambda xs, ps: (ps[:, None] + offsets, dist), exact=False)
        return (*found, "grid")
    lo, hi = float(P.min()) - radius, float(P.max()) + radius
    # anchor the grid on the p-values: union of a coarse cover and exact p nodes
    n = int(math.ceil((hi - lo) / step)) + 1
    q = np.unique(np.concatenate([np.linspace(lo, hi, n), P]))
    return (*_node_search(d, sigma, x_shared, P, q, exact=False), "grid")


def _kinks(d, x):
    """The kinks in q of tau(x, q), as an array (rows, K) padded with NaN,
    for a density piecewise linear in q whose kinks fit in ROW_CHUNK
    elements; None for every other.  x is None, one point, or the samples'
    points (n, 2) for one row each."""
    if d.kind == "linear":
        return np.empty((1, 0))
    if d.kind == "absolute":
        return np.zeros((1, 1))
    if d.kind == "tabulated":
        nodes, _, interp = d.table          # np.interp is flat past the end nodes
        return nodes[None, :] if interp == "linear" else None
    if d.kind == "expression":
        x1, x2 = (0.0, 0.0) if x is None else np.moveaxis(
            np.asarray(x, dtype=float)[..., None], -2, 0)
        return exprgrammar.kinks(d._ast, x1, x2, limit=ROW_CHUNK)
    return None


def _kink_nodes(kinks, P):
    """The sorted nodes of the exact search at one point: the kinks and P,
    plus one node a unit past each end, on the affine end pieces."""
    q = np.unique(np.concatenate([kinks[np.isfinite(kinks)], P]))
    return np.concatenate([q[:1] - 1.0, q, q[-1:] + 1.0])


def _kink_rows(d, x, P):
    """The exact search's candidate rows [lo - 1, lo, p, kinks..., hi, hi + 1]
    per sample, a NaN kink read as p, with lo and hi the outermost of p and
    its kinks, and their distances |p - q|; None when tau is not piecewise
    linear in q or the kinks outgrow ROW_CHUNK."""
    kinks = _kinks(d, x)
    if kinks is None:
        return None
    p = P[:, None]
    C = np.concatenate([p, np.where(np.isfinite(kinks), kinks, p)], axis=1)
    lo, hi = C.min(axis=1, keepdims=True), C.max(axis=1, keepdims=True)
    C = np.hstack([lo - 1.0, lo, C, hi, hi + 1.0])
    return C, np.abs(p - C)


def _node_search(d, sigma, x, P, q, exact):
    """Every p at one point x over the sorted nodes q, which hold P: the cone
    envelope of tau on q read at P and the node attaining it.  The descent
    test reads the rows of min(P) and max(P)."""
    tau_q = _finite_or_sentinel(d.eval_many(x, q))
    g = tau_q + sigma * np.abs(np.array([[P.min()], [P.max()]]) - q)
    _refuse_descent(g, g.min(axis=1), q, sigma, exact)
    env, arg = _cone_envelope(tau_q, q, sigma)
    at = np.searchsorted(q, P)
    return env[at], q[arg[at]]


def _row_search(d, sigma, x, P, rows, candidates, exact):
    """Every p at its own point x (n, 2), rows samples at a time, over the
    rows of nodes q with distances |p - q| that candidates(x, P) returns for
    a chunk: the row minimum and the node within rounding of it nearest p.
    None when candidates returns None for a chunk."""
    hat, q_min = np.empty((2, len(P)))
    for a in range(0, len(P), rows):
        chunk = slice(a, a + rows)
        found = candidates(x[chunk], P[chunk])
        if found is None:
            return None
        q, dist = found
        cone = sigma * dist
        g = _finite_or_sentinel(d.eval_many(x[chunk, None], q))
        g += cone
        hat[chunk] = m = g.min(axis=1)
        _refuse_descent(g, m, q, sigma, exact)
        near = _near(g, m[:, None])
        q_min[chunk] = q[np.arange(len(q)), np.where(near, cone, np.inf).argmin(axis=1)]
    return hat, q_min


def _refuse_descent(g, g_min, q, sigma, exact):
    """UnboundedBelow where a row of g = tau(q) + sigma|p - q| falls (slope
    <= -DESCENT_MARGIN) on the outer step at an end of its sorted nodes q:
    anywhere when exact, where that step lies past every kink and the piece
    is affine to infinity, else within a step of the row minimum g_min."""
    near_min = g_min + sigma * (q[..., 1] - q[..., 0])
    for side, end, inner in (("left", 0, 1), ("right", -1, -2)):
        slope = (g[:, end] - g[:, inner]) / np.abs(q[..., end] - q[..., inner])
        falls = slope <= -DESCENT_MARGIN
        if np.any(falls if exact else falls & (g[:, end] <= near_min)):
            raise UnboundedBelow("descent direction active past the outermost kink" if exact
                                 else f"descent direction active at {side} search boundary")


def yosida_eval_many(d, ctx, x, P, force_bruteforce=False, return_search=False):
    """tau_hat(x, p) = inf_q tau(x, q) + sigma|p - q| over the p values P, at
    one point x or per sample; with return_search also the search that ran:
    'closed_form', 'kinks' or 'grid'.

    Builtin kinds use closed forms; every other density, and every density
    under force_bruteforce, goes through _brute_force_yosida: exact over the
    kinks of a density piecewise linear in p, else a grid minimum within
    yosida_radius of p.  Raises UnboundedBelow when the inf is -infinity
    (slope of tau beyond sigma at infinity).
    """
    P = np.asarray(P, dtype=float)
    cf = None if force_bruteforce else closed_form(d, ctx.sigma)
    if cf is not None:
        hat, search = cf.hat(P), "closed_form"
    else:
        hat, _, search = _brute_force_yosida(d, ctx, x, P.ravel())
        hat = hat.reshape(P.shape)
    return (hat, search) if return_search else hat


# -- upper envelope and the Lipschitz approximation ladder ------------------------

BALL_GRID_PER_UNIT = 10_000


def upper_envelope_T(d: SurfaceDensity, x, p):
    """Caratheodory upper envelope T(x, p) = sum_j M_{j+2}(x) psi_j(|p|), where
    M_j(x) = max(sup_{|q| <= j} tau(x, q), 0), psi_1 is 1 on [0, 1] and falls
    to 0 at 2, and psi_j (j >= 2) is the unit hat on [j-1, j+1]; T >= max(tau, 0).

    T is piecewise linear in |p| through (0, M_3) and (j, M_{j+2}), j >= 1.
    Every M_j is read from one dense grid on [-(J+2), J+2]: the largest tau in
    each unit shell j - 1 < |q| <= j, then a running max over the shells.
    Vectorized over scalar p; a scalar p returns a float.
    """
    r = np.abs(np.asarray(p, dtype=float))
    J = max(1, math.ceil(r.max()))
    m, n = J + 2, BALL_GRID_PER_UNIT
    c = m * n                                  # the node q = 0
    tau = d.eval_many(x, np.linspace(-m, m, 2 * c + 1))
    shells = np.maximum(tau[c + 1:].reshape(m, n).max(axis=1),
                        tau[c - 1::-1].reshape(m, n).max(axis=1))
    M = np.maximum.accumulate(np.concatenate([tau[c:c + 1], shells]))
    np.maximum(M, 0.0, out=M)                  # M[j] = M_j, j = 0 .. J + 2
    T = np.interp(r, np.arange(J + 1), np.concatenate([M[3:4], M[3:]]))
    return float(T) if T.ndim == 0 else T


def lip_upper_approx_many(d: SurfaceDensity, k: int, x, P):
    """k-th member of the decreasing Lipschitz upper ladder over scalar p values,

        tau_k = t_k + T,   t_k(x, p) = sup_q { t(x, q) - k|p - q| },

    with t = tau - T <= 0.  tau_k decreases pointwise to tau as k grows when
    tau(x, .) is upper semicontinuous.  t_k is minus the transform of -t at
    sigma = k, searched on the q-grid of step R/4000 that holds every p."""
    if k < 1:
        raise ValueError("k must be >= 1")
    P = np.atleast_1d(np.asarray(P, dtype=float))
    T_P = upper_envelope_T(d, x, P)
    tau_P = d.eval_many(x, P)
    # search radius from the lower-bound logic applied to -t = T - tau >= 0
    neg_t = np.where(np.isfinite(tau_P), T_P - tau_P, 1.0)
    pmax = float(np.abs(P).max())
    R = max(float(neg_t.max() + 1.0 + 2.0 * k * pmax) / k, pmax + 1.0)
    minus_t = SurfaceDensity.from_callable(
        lambda x, q: upper_envelope_T(d, x, q) - _finite_or_sentinel(d.eval_many(x, q)))
    t_k = -_brute_force_yosida(minus_t, YosidaContext(k, R, R / 4000), x, P)[0]
    return t_k + T_P


def step_density(low=-1.0, at=0.0):
    """Upper-semicontinuous step: 0 for p <= at, `low` for p > at."""
    def fn(x, P):
        P = np.asarray(P, dtype=float)
        return np.where(P > at, low, 0.0)
    return SurfaceDensity.from_callable(fn, c=max(0.0, -low), L=0.0)
