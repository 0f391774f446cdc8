"""Relaxed-energy oracle, counterexample catalog, and falsification harness.

The transformed energy H(u) = sigma TV(u) + int tau_hat(x, Tr u) is the
candidate value of the relaxed contact energy.  Whether it is attained is a
geometric question: on the unit square with tau = lam * p the corner-jump
family shows the relaxation drops below H(0) = 0 exactly when
|lam| > sigma / sqrt(2), matching the corner admissibility product
L * q = |lam| * sqrt(2) crossing sigma.  The catalog reproduces the three
classical families in closed form:

  E1(lam):  corner jumps n * 1_{x1 + x2 < 1/n} on the square; each member has
            energy sigma * sqrt(2) + 2 * lam, negative iff lam < -sigma/sqrt(2).
  E2(lam):  radial tents min(|x|, (n-1)(1-|x|)) on the disk; energies increase
            to 3 pi sigma while the limit cone |x| has sigma pi + 2 pi lam, so
            semicontinuity fails iff lam > sigma.
  LOG1D:    truncated logarithms on (0, 1) with tau(x, p) = p; every member
            has energy exactly 0 while the L1 limit log leaves BV.

Printed constants elsewhere for the first two gaps are sqrt(2) - 2 lam and
2 (1 - lam); direct evaluation of the defining sequences gives
sqrt(2) + 2 lam and 2 pi (1 - lam), which are the values reported here (the
sign/factor discrepancy is flagged in the reports, not silently resolved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import density as density_mod
from .density import YosidaContext
from .errors import SchemaError
from .extension import optimal_boundary_values, recovery_sequence
from .geometry import LineDomain, admissibility_check, regular_ngon, unit_square
from .grid import (GridField, LineGrid, TraceSample, constant_field, energy_F,
                   energy_H, field_from_function, trace_extract)


@dataclass
class SequenceSpec:
    """One member's grid realization and, where the family has them, its
    exact jump set and trace."""

    realization: GridField
    jump_set: list | None = None
    exact_trace: TraceSample | None = None


class E1Family:
    """Corner jumps n * 1_{x1+x2 < 1/n} on the unit square, tau = lam * p."""

    def __init__(self, lam: float, sigma: float = 1.0):
        self.lam = float(lam)
        self.sigma = float(sigma)
        self.dom = unit_square()
        self.density = density_mod.linear(lam)
        self.name = f"E1(lam={lam})"
        self.sequence_limit = self.member_energy(1)
        self.limit_energy_F = 0.0
        # |lam| <= sigma needed for tau_hat = tau; at p = 0 both vanish
        self.limit_energy_H = 0.0

    def member_energy(self, n):
        # jump height n across the diagonal of length sqrt(2)/n, trace n on
        # two boundary legs of length 1/n each
        return self.sigma * math.sqrt(2.0) + 2.0 * self.lam

    def member(self, n, h):
        g = self.dom.grid(h)
        c = 1.0 / n
        vals_fn = lambda X, Y: np.where(X + Y < c, float(n), 0.0)
        f = field_from_function(g, vals_fn)
        jump = [((c, 0.0), (0.0, c), float(n))]
        exact = _legs_trace(self.dom, [(0.0, c, float(n)),
                                       (4.0 - c, 4.0, float(n))])
        return SequenceSpec(f, jump, exact)

    def limit_field(self, h):
        return constant_field(self.dom.grid(h), 0.0)


def _legs_trace(dom, segments) -> TraceSample:
    """Minimal exact trace: piecewise-constant in arc length, value v on each
    (s_lo, s_hi, v) segment and 0 elsewhere.  A piece's edge id is the edge
    its midpoint's arc position falls on, found as boundary_point finds it."""
    cuts = sorted({0.0, dom.perimeter} | {s for lo, hi, _ in segments for s in (lo, hi)})
    s_mid, w, vals = [], [], []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        v = 0.0
        for a, b, val in segments:
            if a <= mid < b:
                v = val
                break
        s_mid.append(mid)
        w.append(hi - lo)
        vals.append(v)
    s_mid = np.asarray(s_mid)
    eid = np.clip(np.searchsorted(dom.arc_offsets, s_mid, side="right") - 1, 0, dom.n - 1)
    return TraceSample(s=s_mid, x=dom.boundary_point(s_mid), w=np.asarray(w),
                       values=np.asarray(vals), edge_id=eid)


class E2Family:
    """Radial tents min(|x|, (n-1)(1-|x|)) on the disk surrogate, tau = lam |p|."""

    def __init__(self, lam: float, sigma: float = 1.0):
        self.lam = float(lam)
        self.sigma = float(sigma)
        self.dom = regular_ngon(256)
        self.density = density_mod.absolute(lam)
        self.name = f"E2(lam={lam})"
        self.sequence_limit = 3.0 * math.pi * self.sigma
        self.limit_energy_F = self.sigma * math.pi + self.lam * 2.0 * math.pi
        self.limit_energy_H = self.sigma * math.pi + min(self.lam, self.sigma) * 2.0 * math.pi

    def member_energy(self, n):
        # gradient 1 inside radius r_n = (n-1)/n, slope n-1 on the outer
        # annulus, zero trace
        r = (n - 1.0) / n
        return self.sigma * (math.pi * r * r + (n - 1.0) * math.pi * (1.0 - r * r))

    def member(self, n, h):
        g = self.dom.grid(h)
        fn = lambda X, Y: np.minimum(np.hypot(X, Y), (n - 1.0) * (1.0 - np.hypot(X, Y)))
        f = field_from_function(g, fn)
        return SequenceSpec(f, exact_trace=_legs_trace(self.dom, []))  # trace identically zero

    def limit_field(self, h):
        return field_from_function(self.dom.grid(h), lambda X, Y: np.hypot(X, Y))


class Log1DFamily:
    """Truncated logarithms on (0, 1), tau(x, p) = p at both endpoints."""

    def __init__(self):
        self.dom = LineDomain(0.0, 1.0)
        self.sigma = 1.0
        self.density = density_mod.linear(1.0)
        self.name = "LOG1D"
        self.sequence_limit = 0.0
        self.limit_energy_F = math.inf  # the limit log leaves BV(0, 1): TV sentinel
        self.limit_energy_H = math.inf

    def member_energy(self, n):
        # TV = log(n), contact = u(1) + u(0) = 0 - log(n); exact cancellation
        ln = math.log(n)
        return ln + (0.0 - ln)

    def member(self, n, h):
        g = LineGrid(self.dom, h)
        return SequenceSpec(field_from_function(g, lambda X, Y: np.log(np.maximum(X, 1.0 / n))))


def family_by_name(name, lam=None, sigma=1.0):
    if name.upper() == "E1":
        return E1Family(lam, sigma)
    if name.upper() == "E2":
        return E2Family(lam, sigma)
    if name.upper() == "LOG1D":
        return Log1DFamily()
    raise SchemaError(f"unknown counterexample family {name!r}")


@dataclass
class CatalogReport:
    """Semicontinuity audit of a family: its member energies, their liminf,
    and the energies F and H of the L1 limit (H is the claimed relaxed value
    when the configuration is admissible).  gap = limit_energy_F -
    liminf_energy, positive exactly for violations."""

    family: str
    n_values: list
    per_n: list
    liminf_energy: float
    limit_energy_F: float
    limit_energy_H: float
    gap: float
    violated: bool
    grid_checks: dict = field(default_factory=dict)


def counterexample_energy(fam: E1Family | E2Family | Log1DFamily,
                          n_values=(4, 8, 16, 32), grid_check_n=None,
                          h=1 / 512) -> CatalogReport:
    """The audit of one family: closed-form member energies, their liminf
    (exact, as the catalog carries closed-form limits), the energies of the
    L1 limit, and an optional grid confirmation at one member on the grid of
    spacing h (grid_checks["h"] is the spacing that grid realized), with its
    exact-term energy where the family has exact terms (E1, E2).  A limit
    outside BV has infinite energy and counts as a violation there."""
    checks = {}
    if grid_check_n is not None:
        spec = fam.member(grid_check_n, h)
        u = spec.realization
        checks = {"n": grid_check_n, "h": u.grid.h,
                  "grid_mode_total": energy_F(u, fam.density, fam.sigma).total,
                  "closed_form": fam.member_energy(grid_check_n)}
        if spec.jump_set is not None or spec.exact_trace is not None:
            checks["exact_mode_total"] = energy_F(
                u, fam.density, fam.sigma, exact_jump_set=spec.jump_set,
                exact_trace=spec.exact_trace).total
    gap = fam.limit_energy_F - fam.sequence_limit
    return CatalogReport(
        family=fam.name, n_values=list(n_values),
        per_n=[fam.member_energy(n) for n in n_values],
        liminf_energy=fam.sequence_limit, limit_energy_F=fam.limit_energy_F,
        limit_energy_H=fam.limit_energy_H, gap=gap, violated=bool(gap > 1e-9),
        grid_checks=checks)


# -- the relaxed-energy oracle -------------------------------------------------------


def relaxed_energy(u: GridField, d, ctx: YosidaContext):
    """H(u) annotated with admissibility_check's verdict on u's domain at
    eps0 = 0: the representation is claimed iff sup L q < sigma strictly.
    Outside the admissible regime the value is still returned but flagged.
    """
    adm = admissibility_check(u.dom, d, ctx.sigma, 0.0)
    claimed = adm.verdict == "almost_C1_clause"
    rep = energy_H(u, d, ctx)
    rep.notes["admissibility"] = adm.verdict
    rep.notes["representation_claimed"] = claimed
    if not claimed:
        rep.notes["warning"] = ("admissibility fails: the returned value is H(u), "
                                "not a certified relaxation")
    return rep


@dataclass
class RepresentationReport:
    upper_gap: float
    lower_gap: float
    H_value: float
    upper_detail: dict
    lower_detail: dict


def _grid_energy(g, values, d, sigma):
    """The grid energy F of values on g.  The field lives only in this call,
    so no earlier perturbed field is alive while the next one is built."""
    return energy_F(GridField(g, values), d, sigma).total


def _tail_energies(u, d, sigma, base_F, seed, n):
    """The perturbation families of the lower check at n, as (name, energy)
    pairs in a fixed order: the corner wedges, the bumps, the shifts.

    corner_wedge: a jump of height n on the triangle with legs a0/n at a
    convex corner changes TV by 2 a0 sin(theta/2) (independent of n) and the
    contact term by about (2 a0 / n) * [tau(x_c, t_c + n) - tau(x_c, t_c)];
    the subadditive estimate upper-bounds the true energy, so any value below
    H - tol is a genuine violation witness.  bump: grid energy of a shrinking
    boundary Gaussian of amplitude -1.5, then 0.75, at a few seeded boundary
    points.  shift: grid energy of u -/+ 1/n.
    """
    dom, g = u.dom, u.grid
    out = []
    tr = trace_extract(u)
    for rec in dom.corner_records:
        if rec.theta >= math.pi:
            continue
        v = tuple(dom.vertices[rec.index])
        a0 = min(dom.edge_lengths[rec.index - 1], dom.edge_lengths[rec.index])
        dists = np.hypot(tr.x[:, 0] - v[0], tr.x[:, 1] - v[1])
        t_c = float(tr.values[int(np.argmin(dists))])
        dtv = sigma * 2.0 * a0 * math.sin(rec.theta / 2.0)
        dtau = d.eval_many(v, np.array([t_c + n]))[0] - d.eval_many(v, np.array([t_c]))[0]
        out.append((f"corner_wedge(v{rec.index})", base_F + dtv + (2.0 * a0 / n) * float(dtau)))
    b = g.boundary()
    X, Y = g.cell_centers()
    rng = np.random.default_rng(seed)
    for j in rng.choice(len(b.s), size=min(4, max(1, len(b.s) // 64)), replace=False):
        x0, y0 = b.x[j]
        width = max(0.5 / n, 4 * g.h)
        bump = np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2 * width ** 2))
        for amp in (-1.5, 0.75):
            e = _grid_energy(g, u.values + np.where(g.mask, amp * bump, 0.0), d, sigma)
            out.append((f"bump({x0:.2f},{y0:.2f},A={amp})", e))
    out += [(f"shift({c:+.0f}/n)", _grid_energy(g, u.values + c / n, d, sigma))
            for c in (-1.0, 1.0)]
    return out


def verify_representation(u: GridField, d, ctx: YosidaContext, budget: int = 64,
                          seed: int = 0) -> RepresentationReport:
    """Two-sided desk check of the representation at a single field.

    upper_gap: best recovery-sequence energy minus H(u); small for admissible
    configurations (the constructive half).  lower_gap: most violating
    candidate-sequence tail energy minus H(u); values below -tol falsify the
    representation (negative findings are reported, not raised).
    """
    H = energy_H(u, d, ctx).total
    eps_opt = 0.005 * (1.0 + abs(H)) / u.dom.perimeter
    p = optimal_boundary_values(u, d, ctx, eps=eps_opt)
    ladder = sorted({n for n in (4, 8, 16, 32, 64, budget)})
    best = math.inf
    best_n = None
    rec_tail = []   # (effective eps, energy) per rung; the two smallest distinct eps extrapolate
    for n in ladder:
        un, eps_eff = recovery_sequence(u, p, n)
        e = energy_F(un, d, ctx.sigma).total
        rec_tail.append((eps_eff, e))
        if e < best:
            best, best_n = e, n
    base_F = energy_F(u, d, ctx.sigma).total
    # liminf estimates by two-point extrapolation: the recovery tail is linear
    # in its layer sharpness (corner savings ~ delta), the other families are
    # e + a/n with n doubling across the pair
    candidates = [("identity", base_F, base_F)]
    # keep the last energy seen at each distinct sharpness: rungs clamped to
    # the resolvability floor all share one eps and carry no slope information
    by_eps = {}
    for eps_eff, e in rec_tail:
        by_eps[round(eps_eff, 15)] = e
    pts = sorted(by_eps.items(), reverse=True)[-2:]
    if len(pts) == 2 and abs(pts[0][0] - pts[1][0]) > 1e-15:
        (eps1, e1), (eps2, e2) = pts
        rec_lim = e2 + (e1 - e2) * (0.0 - eps2) / (eps1 - eps2)
    else:
        rec_lim = pts[-1][1]
    candidates.append(("recovery_tail", rec_lim, min(e for _, e in rec_tail)))
    # every other family at the pair (n/2, n)
    halves, fulls = (_tail_energies(u, d, ctx.sigma, base_F, seed, n)
                     for n in (max(2, budget // 2), budget))
    for (name, e_half), (_, e_full) in zip(halves, fulls):
        candidates.append((name, 2.0 * e_full - e_half, min(e_half, e_full)))
    lower_name, lower_energy, lower_raw = min(candidates, key=lambda kv: kv[1])
    return RepresentationReport(
        upper_gap=best - H,
        lower_gap=lower_energy - H,
        H_value=H,
        upper_detail={"n": best_n, "energy": best, "eps_opt": eps_opt,
                      "ladder": ladder},
        lower_detail={"worst_candidate": lower_name, "energy": lower_energy,
                      "tail_min": lower_raw, "n_candidates": len(candidates)},
    )
