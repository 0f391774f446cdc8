import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvcontact import density, solver
from bvcontact.density import YosidaContext
from bvcontact.errors import MaskMismatch, NonconvexBoundaryTerm, UnboundedBelow
from bvcontact.geometry import (DomainGrid, builtin_domain, l_shape, regular_ngon,
                                unit_square)
from bvcontact.grid import constant_field, energy_capillarity, field_from_function
from bvcontact.solver import _ContactProx, _dual_step_area, minimize_energy

SQ = unit_square()


def test_zero_fidelity_no_contact():
    res = minimize_energy(SQ.grid(1 / 64), d=None, ctx=YosidaContext(1.0), bulk="quadratic",
                          iters=500, tol=1e-6)
    assert res.residual < 1e-6
    assert np.abs(res.u.values).max() == 0.0


def test_capillarity_beats_constant_oracle():
    nu = 0.5
    res = minimize_energy(SQ.grid(1 / 64), bulk="capillarity", nu=nu,
                          iters=4000, tol=1e-6)
    # best constant: 1 + c^2 + 4 nu c minimized at c = -2 nu, value 1 - 4 nu^2
    oracle = 1.0 - 4.0 * nu * nu
    assert res.report.total <= oracle + 1e-3
    assert res.residual < 1e-6
    assert res.dual_feasibility_max <= res.dual_bound + 1e-12
    # the area dual step stops each cell at the root: one certified Newton step
    # here, 14 for the fixed loop it replaced
    assert res.notes["dual_newton_steps_max"] <= 3
    assert res.notes["dual_newton_correction_max"] <= 4.0 * np.finfo(float).eps


def test_capillarity_report_is_true_energy():
    res = minimize_energy(SQ.grid(1 / 64), bulk="capillarity", nu=0.3,
                          iters=2000, tol=1e-6)
    direct = energy_capillarity(res.u, 0.3)
    assert res.report.total == pytest.approx(direct.total, rel=1e-12)


@pytest.mark.parametrize("d", [density.linear(0.0), None], ids=["linear0", "no-density"])
def test_small_step_stops_only_on_a_small_gap(d):
    # from u = f and xi = 0 the first step of this solve is 1e-14: a stop on
    # the step alone returned u = f after one iteration, total 1.58179 and
    # gap_relative 0.9967
    h = 1 / 32
    f = field_from_function(SQ.grid(h), lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2
                                                                 + (Y - 0.5) ** 2)))
    res = minimize_energy(SQ.grid(h), d=d, ctx=YosidaContext(1.0), bulk="quadratic", f=f,
                          iters=2000, tol=1e-6)
    assert res.report.total == pytest.approx(0.0664586, rel=1e-6)
    assert res.residual <= 1e-6 and res.gap_relative <= 1e-6
    assert res.iterations == 151


def test_disk_contact_beats_candidate_sweep():
    dom = regular_ngon(64)
    d = density.linear(-0.5)
    ctx = YosidaContext(1.0)
    g = dom.grid(1 / 64)
    res = minimize_energy(g, d=d, ctx=ctx, bulk="quadratic", iters=3000, tol=1e-6)

    def full_energy(u):
        from bvcontact.grid import energy_H
        rep = energy_H(u, d, ctx)
        bulk = g.cell_area * (u.values[g.mask] ** 2).sum()
        return rep.total + bulk

    e_star = full_energy(res.u)
    # 100-point constant-and-radial candidate sweep
    for c in np.linspace(-1.5, 1.5, 50):
        assert e_star <= full_energy(constant_field(g, c)) + 1e-4 * (1 + abs(e_star))
    for a in np.linspace(-1.0, 1.0, 50):
        u = field_from_function(g, lambda X, Y, a=a: a * np.hypot(X, Y))
        assert e_star <= full_energy(u) + 1e-4 * (1 + abs(e_star))


def _bisect_radial_root(mag, s_beta, top=1.0 - 1e-15):
    """Root of s_beta r / sqrt(1 - r^2) + r = mag on [0, top] by bisection
    (top when the root lies above it)."""
    lo, hi = np.zeros_like(mag), np.full_like(mag, top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        up = s_beta * mid / np.sqrt(1.0 - mid * mid) + mid >= mag
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return hi


@pytest.mark.parametrize("s_beta", [0.0, 1e-9, 3.5e-7, 1e-3, 1.0, 100.0])
def test_dual_step_area_is_exact(s_beta):
    # cells with |z| >= 1 start near r = 1, where a fixed 14 steps stop short of the root
    mag = np.concatenate([np.linspace(0.0, 1.3, 1301), np.geomspace(1e-12, 1e6, 181),
                          [1.0 - 1e-12, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 + 1e-9]])
    ang = np.linspace(0.0, 2.0 * np.pi, len(mag))
    zx, zy = mag * np.cos(ang), mag * np.sin(ang)
    (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), s_beta)
    r = np.hypot(xx, yy)
    assert np.abs(r - _bisect_radial_root(np.hypot(zx, zy), s_beta)).max() <= 4e-15
    assert r.max() <= 1.0
    assert corr <= 4.0 * np.finfo(float).eps
    assert steps <= 30      # from r = 1 - 1e-15, |z| = 1.3 at s_beta = 1 needs 37


def _one_step_bound(m, s_beta):
    """1.5 s^3 m^3 / (1 - m^2)^(7/2): the distance to the root left by one
    Newton step from r0 = |z| where every |z| <= m."""
    return 1.5 * s_beta ** 3 * m ** 3 / (1.0 - m * m) ** 3.5


def _ring(m, n=997):
    """z spread over the disk of radius m, with |z| = m at one cell."""
    mag = m * np.concatenate([np.linspace(0.0, 1.0, n), np.geomspace(1e-9, 1.0, 50)])
    ang = np.linspace(0.0, 2.0 * np.pi, len(mag))
    return mag * np.cos(ang), mag * np.sin(ang)


@pytest.mark.parametrize("s_beta", [0.0, 1e-9, 3.5e-7, 1e-3])
@pytest.mark.parametrize("m", [0.005, 0.1, 0.5, 0.7, 0.9, 0.95])
def test_dual_step_area_one_step_is_certified(s_beta, m):
    zx, zy = _ring(m)
    (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), s_beta)
    bound = _one_step_bound(m, s_beta)
    if bound <= solver.DUAL_NEWTON_TOL:
        assert steps == 1 and corr == pytest.approx(bound, rel=1e-12, abs=1e-300)
    else:
        assert steps > 1 and corr <= solver.DUAL_NEWTON_TOL
    r = np.hypot(xx, yy)
    assert np.abs(r - _bisect_radial_root(np.hypot(zx, zy), s_beta)).max() <= 4e-15


@pytest.mark.parametrize("s_beta", [0.0, 1e-9, 4.6e-7, 1e-3, 1.0])
def test_dual_step_area_certifies_per_cell(s_beta):
    # mostly small |z|, a few cells at 1 -+ 1e-6 and above 1: the small cells
    # take the certified one step, the rest the loop
    rng = np.random.default_rng(7)
    mag = np.concatenate([rng.uniform(0.0, 0.9, 4000), [1.0 - 1e-6, 1.0 + 1e-6],
                          rng.uniform(1.0, 1.5, 10)])
    ang = rng.uniform(0.0, 2.0 * np.pi, len(mag))
    zx, zy = mag * np.cos(ang), mag * np.sin(ang)
    cert2, _ = solver._certified_m2(s_beta, 1.0 - 1e-15)
    (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), s_beta)
    r = np.hypot(xx, yy)
    assert np.abs(r - _bisect_radial_root(np.hypot(zx, zy), s_beta)).max() <= 4e-15
    assert corr <= solver.DUAL_NEWTON_TOL
    # the certified cells are exactly the one-step factor
    one = mag * mag <= cert2
    mag2 = zx[one] ** 2 + zy[one] ** 2
    q = (1.0 - mag2) ** 1.5
    factor = (q + s_beta * mag2) / (q + s_beta)
    np.testing.assert_allclose(xx[one], zx[one] * factor, rtol=1e-15, atol=0)
    if s_beta <= 4.6e-7:     # the certified radius is 0.96 at 4.6e-7
        assert one[:4000].all()
    if s_beta > 0:      # s_beta = 0 clips |z| = 1 + 1e-6 to top in one step
        assert steps > 1


def test_dual_step_area_passes_nan_through():
    zx, zy = np.array([0.1, np.nan, 1.2]), np.zeros(3)
    (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), 1e-6)
    assert np.isnan(xx[1])
    assert np.abs(xx[[0, 2]] - _bisect_radial_root(zx[[0, 2]], 1e-6)).max() <= 4e-15
    with pytest.raises(ValueError, match="non-finite"):
        minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=np.nan, iters=5)


@pytest.mark.parametrize("s_beta", [0.0, 1e-9, 3.5e-7, 1e-3, 1.0, 1e200])
def test_certified_radius_is_the_last_certified_float(s_beta):
    top = 1.0 - 1e-15
    m2, bound = solver._certified_m2(s_beta, top)
    assert bound == solver._one_step_bound(m2, s_beta, top) <= solver.DUAL_NEWTON_TOL
    nxt = np.nextafter(m2, 2.0)
    assert nxt > top * top or solver._one_step_bound(nxt, s_beta, top) > solver.DUAL_NEWTON_TOL


@pytest.mark.parametrize("s_beta", [1e-9, 3.5e-7, 1e-3])
def test_dual_step_area_just_past_the_certificate(s_beta):
    lo, hi = 0.0, 1.0 - 1e-15       # the largest m the one step certifies
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _one_step_bound(mid, s_beta) <= solver.DUAL_NEWTON_TOL \
            else (lo, mid)
    for m, one_step in ((lo * (1 - 1e-6), True), (lo * (1 + 1e-6), False)):
        zx, zy = _ring(m)
        (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), s_beta)
        assert (steps == 1) == one_step
        assert corr <= solver.DUAL_NEWTON_TOL
        r = np.hypot(xx, yy)
        assert np.abs(r - _bisect_radial_root(np.hypot(zx, zy), s_beta)).max() <= 4e-15


def test_dual_step_area_huge_s_beta_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1e-250, 0.5, 0.95, 2.0):
            zx, zy = _ring(m)
            for s_beta in (1e200, 1e300, np.float64(1e300)):
                (xx, yy), steps, corr = _dual_step_area(np.stack([zx, zy]), s_beta)
                assert np.all(np.isfinite(xx)) and corr <= solver.DUAL_NEWTON_TOL
        res = minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=0.5, iters=20,
                              tol=0.0, beta=1e300)
    assert np.all(np.isfinite(res.u.values))
    assert res.dual_feasibility_max <= 1.0


def test_capillarity_solve_pinned():
    # h = 1/64, nu = 0.5: 327 over-relaxed iterations; the total is -1.8e-4
    # from terms of size 1-2, so it is pinned to 1e-12 of the terms
    res = minimize_energy(SQ.grid(1 / 64), bulk="capillarity", nu=0.5, iters=4000, tol=1e-6)
    rep = res.report
    assert res.iterations == 327
    scale = abs(rep.tv_term) + abs(rep.contact_term) + abs(rep.bulk_term)
    assert abs(rep.total - -1.8146546886832482e-4) <= 1e-12 * scale
    assert res.notes["dual_one_step_calls"] == 327
    assert res.gap_relative <= 1e-7
    assert res.dual_feasibility_max <= res.dual_bound


def test_capillarity_at_beta_one_minimizes_the_reported_area_energy():
    # the solver smooths the area integrand as sqrt(beta^2 + |grad u|^2) and
    # the report reads sqrt(1 + |grad u|^2): at beta = 1 they are one
    # functional, whose minimum lies below the best constant's 1 - 4 nu^2
    nu, h = 0.5, 1 / 32
    res = minimize_energy(SQ.grid(h), bulk="capillarity", nu=nu, iters=4000, tol=1e-6,
                          beta=1.0)
    assert res.residual <= 1e-6
    assert h * h * res.energy_history[-1] == pytest.approx(res.report.total,
                                                                rel=1e-12)
    assert res.report.total < 1.0 - 4.0 * nu * nu - 0.05


@pytest.mark.parametrize("kwargs", [{"iters": 0}, {"iters": -3}, {"beta": -1e-3},
                                    {"beta": np.inf}, {"beta": np.nan}])
def test_minimize_energy_rejects_bad_iters_and_beta(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=0.5, **kwargs)


@pytest.mark.parametrize("kwargs", [{"iters": True}, {"iters": 2.5}, {"tol": np.nan},
                                    {"tol": -1.0}, {"beta": True}])
def test_minimize_energy_rejects_mistyped_inputs(kwargs):
    # each ran before: a bool or fractional iters hit numpy's TypeError, a NaN or
    # negative tol ran the whole budget, beta=True ran as 1
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=0.5, **{"iters": 5, **kwargs})


def test_solve_runs_on_the_grid_it_is_given():
    # a grid built directly, not through dom.grid: the solve neither looks
    # one up nor builds one
    dom = unit_square()
    g = DomainGrid(dom, 1 / 16)
    res = minimize_energy(g, bulk="capillarity", nu=0.5, iters=5)
    assert res.u.grid is g and dom._grids == {}


def test_solve_refuses_a_forcing_on_another_grid():
    # both lattices are 16 x 16: the L-shape's forcing was read by its
    # values alone, 0 on the square's cells outside the L
    f = constant_field(l_shape().grid(1 / 16), 1.0)
    with pytest.raises(MaskMismatch, match="solve's grid"):
        minimize_energy(unit_square().grid(1 / 16), ctx=YosidaContext(1.0), f=f, iters=5)


def test_capillarity_rejects_f():
    # the solve used to add (u - f)^2 while the report read int u^2: at f = 3
    # u went to 2.0 and the report said bulk 4.0, total 9.0
    dom = unit_square()
    f = constant_field(dom.grid(1 / 16), 3.0)
    with pytest.raises(ValueError, match="reads no f"):
        minimize_energy(dom.grid(1 / 16), bulk="capillarity", nu=0.5, f=f, iters=3)


@pytest.mark.parametrize("kwargs, match", [
    (dict(bulk="area"), "bulk must be"),
    (dict(bulk="quadratic"), "ctx"),
    # the solve dropped d: the report was the same with or without it
    (dict(bulk="capillarity", nu=0.5, d=density.linear(1.0)), "reads no d"),
    # TV + contact alone has the constant argmin tau_hat or no minimum: the
    # solve returned a diverging iterate (linear(0.2): u near -191 after 2000
    # iterations) with no gap and no error
    (dict(bulk="none", d=density.linear(0.2), ctx=YosidaContext(1.0)), "bulk must be"),
])
def test_minimize_energy_refuses_bad_combinations(kwargs, match):
    with pytest.raises(ValueError, match=match):
        minimize_energy(SQ.grid(1 / 16), iters=3, **kwargs)


def test_table_contact_refuses_x_dependent_density():
    # the table prox tabulated tau_hat at the first boundary sample for every cell
    d = density.expression("abs(p) - 0.2*x1*x1", c=0.2, L=0.0)
    with pytest.raises(ValueError, match="free of x"):
        minimize_energy(SQ.grid(1 / 16), d, YosidaContext(1.0), iters=3)


def test_capillarity_runs_at_beta_zero():
    res = minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=0.5, iters=50,
                          tol=0.0, beta=0.0)
    assert np.all(np.isfinite(res.u.values))
    assert res.dual_feasibility_max <= 1.0


def test_dual_feasibility_exact_tv_mode():
    d = density.linear(-0.4)
    g = SQ.grid(1 / 32)
    res = minimize_energy(g, d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                          f=constant_field(g, 1.0), iters=400, tol=0.0)
    xx, yy = res.xi
    assert np.hypot(xx, yy).max() <= 1.0 + 1e-12


def _probe_prox(d, step, z, h=1 / 8):
    """_ContactProx.apply at the constant field z on the square, with
    t * W = step on the non-corner probe cells; returns their values."""
    g = SQ.grid(h)
    prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    side = prox.W == prox.W.min()       # corner cells collect two edges
    out = prox.apply(np.full(g.mask.shape, float(z)), step / prox.W.min())
    vals = out.reshape(-1)[prox.cells][side]
    assert np.all(vals == vals[0])
    return float(vals[0])


def test_prox_contact_soft_threshold():
    assert _probe_prox(density.absolute(2.0), 1.0, 3.0) == pytest.approx(2.0)


def test_prox_contact_linear_shift():
    assert _probe_prox(density.linear(-0.5), 1.0, 0.0) == pytest.approx(0.5)


def test_prox_contact_quadratic_matches_closed_form():
    # piecewise closed form of the transformed quadratic at step 0.5, z = 2:
    # linear branch 0.5 (q - 1/4) + (q-2)^2 / 2 minimized at q = 1.5
    got = _probe_prox(density.quadratic(), 0.5, 2.0)
    assert got == pytest.approx(1.5, abs=1e-4)
    # optimality: no grid point does better
    qs = np.linspace(-1, 3, 20001)
    tau_hat = np.where(np.abs(qs) <= 0.5, qs ** 2, np.abs(qs) - 0.25)
    best = (tau_hat + (qs - 2.0) ** 2 / 1.0).min()
    val = (got ** 2 if abs(got) <= 0.5 else abs(got) - 0.25) + (got - 2) ** 2
    assert val <= best + 1e-6


def test_prox_contact_rejects_bad_step():
    g = SQ.grid(1 / 8)
    prox = _ContactProx(density.linear(0.1), YosidaContext(1.0), g.boundary(),
                        g.mask.shape, 1 / 8)
    with pytest.raises(ValueError):
        prox.apply(np.ones(g.mask.shape), 0.0)


def test_prox_table_mode_matches_closed_form_abs():
    # each expression goes through the table's resolvent, its builtin twin
    # through the closed form; the three tables are exactly piecewise linear
    # with a node at 0, so the two resolvents agree to rounding (a prox that
    # returned nodes was off by up to the 0.003 node step), and give the same
    # contact energy
    g = SQ.grid(1 / 8)
    u = np.random.default_rng(0).uniform(-3.0, 3.0, g.mask.shape)
    for text, L, closed, nonconvex in (("abs(p)", 0.0, density.absolute(1.0), False),
                                       ("-0.5*p", 0.5, density.linear(-0.5), False),
                                       ("-0.5*abs(p)", 0.5, density.absolute(-0.5), True)):
        table = density.expression(text, c=0.0, L=L)
        with pytest.warns(NonconvexBoundaryTerm) if nonconvex else contextlib.nullcontext():
            for z in (-3.0, -0.4, 0.1, 0.3, 0.7, 3.0):
                for step in (0.05, 0.5):
                    got = _probe_prox(table, step, z)
                    want = _probe_prox(closed, step, z)
                    assert abs(got - want) <= 1e-12, (text, z, step, got, want)
            energy = [_ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape,
                                   1 / 8).energy(u) for d in (table, closed)]
        assert energy[0] == pytest.approx(energy[1], rel=1e-12), text


def test_prox_rejects_unbounded_absolute_at_setup():
    g = SQ.grid(1 / 8)
    with pytest.raises(UnboundedBelow):
        _ContactProx(density.absolute(-2.0), YosidaContext(1.0), g.boundary(),
                     g.mask.shape, 1 / 8)


def test_table_mode_solve_converges():
    # p*p goes through the tabulated prox (its builtin twin quadratic has a
    # closed form); a prox taken with the wrong step leaves the residual
    # stalled near 6e-2 after 2000 iterations
    g = SQ.grid(1 / 16)
    f = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    res = minimize_energy(g, d=density.expression("p*p", c=0.0, L=0.0),
                          ctx=YosidaContext(1.0), bulk="quadratic", f=f,
                          iters=2000, tol=1e-6)
    assert res.residual <= 1e-6
    _assert_gap_certifies(res, 1e-6)


def _assert_gap_certifies(res, tol):
    """The gap is >= 0 on every recorded row and confirms the stop."""
    gaps = res.gap_history[~np.isnan(res.gap_history)]
    assert len(gaps) >= res.iterations // solver.GAP_EVERY
    assert np.all(gaps >= 0.0)
    assert res.gap <= tol * max(1.0, abs(res.energy_history[-1]))


def _dense_segment_search(table, z, a):
    """Every segment's clipped minimizer w, the lowest objective a (c_j +
    b_j w) + (w - z)^2 / 2 kept (the first on ties), c_j the intercept of
    segment j, 64 cells at a time: the minimizer and its objective."""
    qs, b = table.qs, table.slope
    c = table.values[:-1] - b * qs[:-1]
    out, val = np.empty(len(z)), np.empty(len(z))
    for k in range(0, len(z), 64):
        zc, ac = z[k:k + 64, None], a[k:k + 64, None]
        w = ac * -b
        w += zc
        np.clip(w, qs[:-1], qs[1:], out=w)
        obj = b * w
        obj += c
        obj *= ac
        d = w - zc
        d *= d
        d *= 0.5
        obj += d
        best = np.argmin(obj, axis=1)
        rows = np.arange(len(w))
        out[k:k + 64], val[k:k + 64] = w[rows, best], obj[rows, best]
    return out, val


def _assert_is_the_dense_minimum(table, z, a, got):
    want, val = _dense_segment_search(table, z, a)
    obj = a * table.hat(got) + 0.5 * (got - z) ** 2
    assert np.all(obj <= val + 1e-12 * np.maximum(1.0, np.abs(val)))
    assert np.abs(got - want).max() <= 1e-9


def _table_prox(expr, convex, dom, h):
    g = dom.grid(h)
    d = density.expression(expr, c=0.0, L=0.0)
    with contextlib.nullcontext() if convex else pytest.warns(NonconvexBoundaryTerm):
        prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    return prox, g


@pytest.mark.parametrize("expr, convex", [("p*p + 0.5*abs(p-0.25)", True),
                                          ("2*min(abs(p-1), abs(p+1))", False)])
def test_table_prox_window_matches_dense_argmin(expr, convex):
    # on the square at h = 1/128 side cells have W = 128, corner cells
    # W = 256; the solver's step t / (1 + 2t) makes t W about 2.7 and 5.4.
    # The two-well table's window search moves some cells off the envelope's
    # prox on every call
    rng = np.random.default_rng(7)
    for name, h, calls in (("square", 1 / 128, 30), ("lshape", 1 / 256, 9),
                           ("disk64", 1 / 256, 9), ("disk256", 1 / 256, 9)):
        prox, g = _table_prox(expr, convex, builtin_domain(name), h)
        table = prox.transform
        t_solver = 8.0 / (np.sqrt(8.0) / h)
        steps = (t_solver / (1 + 2 * t_solver), 1e-4, 0.1)
        for k in range(calls):
            t = steps[k % 3]                             # the key cache sees every change
            z = rng.uniform(-9.0, 9.0, len(prox.W))      # nodes cover [-6, 6]
            u = np.zeros(g.mask.shape)
            u.reshape(-1)[prox.cells] = z
            got = prox.apply(u, t).reshape(-1)[prox.cells]
            _assert_is_the_dense_minimum(table, z, t * prox.W, got)
            assert convex or np.any(got != table._envelope_prox(z, t * prox.W))


def test_table_prox_window_shrinks_where_the_bracket_gap_is_zero():
    # two-well table: T - C is 0 outside the wells but 0.999 at its largest;
    # where T = C at the envelope's prox v_C the window radius
    # sqrt(2 t W (T - C)(v_C)) is 0, and v_C is the prox
    h = 1 / 128
    prox, g = _table_prox("2*min(abs(p-1), abs(p+1))", False, SQ, h)
    table = prox.transform
    t_solver = 8.0 / (np.sqrt(8.0) / h)
    t = t_solver / (1 + 2 * t_solver)
    rng = np.random.default_rng(3)
    z = rng.uniform(7.0, 9.0, len(prox.W)) * rng.choice([-1.0, 1.0], len(prox.W))
    v_c = table._envelope_prox(z, t * prox.W)
    assert np.all(np.interp(v_c, table.qs, table.node_gap) == 0.0)
    u = np.zeros(g.mask.shape)
    u.reshape(-1)[prox.cells] = z
    got = prox.apply(u, t).reshape(-1)[prox.cells]
    assert np.array_equal(got, v_c)
    _assert_is_the_dense_minimum(table, z, t * prox.W, got)


def test_table_prox_nodes_extend_past_the_data():
    # nodes that stop at 6 hold the boundary cells there: total 12.84
    g = SQ.grid(1 / 32)
    d = density.expression("0.01*abs(p-10)", c=0.0, L=0.01)
    res = minimize_energy(g, d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                          f=constant_field(g, 10.0), iters=2000, tol=1e-6)
    assert res.residual <= 1e-6
    assert res.report.total <= 1e-3
    assert np.abs(res.u.values[g.mask] - 10.0).max() <= 0.003


def test_nonconvex_contact_warns_and_runs():
    d = density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    with pytest.warns(NonconvexBoundaryTerm):
        res = minimize_energy(SQ.grid(1 / 32), d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                              iters=300, tol=1e-6)
    assert np.all(np.isfinite(res.u.values))


@pytest.mark.parametrize("iters", [1, 2, 7])
def test_energy_record_is_objective_at_final_iterate(iters, monkeypatch):
    # the record is the scaled objective of u_k, recomputed here from scratch;
    # at iters = 1 a record taken from the previous iterate's gradient differs
    h, beta, nu = 1 / 32, 1e-3, 0.5
    g = SQ.grid(h)
    bump = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    table = density.expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0)
    ctx = YosidaContext(1.0)
    prox = _ContactProx(table, ctx, g.boundary(), g.mask.shape, h)
    calls = []
    grad = solver._grad
    monkeypatch.setattr(solver, "_grad", lambda *a: calls.append(1) or grad(*a))
    for kwargs, integrand, bulk, tau_hat in (
            (dict(bulk="capillarity", nu=nu, beta=beta),
             lambda gx, gy: np.sqrt(beta * beta + gx * gx + gy * gy), lambda u: u * u,
             lambda z: nu * z),
            (dict(d=table, ctx=ctx, bulk="quadratic", f=bump),
             np.hypot, lambda u: (u - bump.values) ** 2,
             prox.transform.hat)):
        calls.clear()
        res = minimize_energy(g, iters=iters, tol=0.0, **kwargs)
        u = res.u.values
        gx, gy = grad(u, h, g.neighbor_masks())
        z = u.reshape(-1)[prox.cells]
        want = (integrand(gx, gy)[g.mask].sum() + bulk(u)[g.mask].sum()
                + (prox.W * tau_hat(z)).sum())
        assert res.iterations == iters
        assert res.energy_history[-1] == pytest.approx(want, rel=1e-12)
        assert len(calls) == iters + 1


@pytest.mark.parametrize("case", ["closed-form", "table"])
def test_energy_is_recorded_on_the_gap_rows(case, monkeypatch):
    # the objective is evaluated on every GAP_EVERY-th row and the last only,
    # NaN elsewhere, and each record is _scaled_energy at that row's iterate
    # (the u~_k a solve of k iterations returns)
    h, beta, iters = 1 / 32, 1e-3, 25
    g = SQ.grid(h)
    ctx = YosidaContext(1.0)
    if case == "closed-form":
        kwargs, area, f = dict(bulk="capillarity", nu=0.5, beta=beta), True, np.zeros(g.mask.shape)
        d = density.linear(0.5)
    else:
        d = density.expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0)
        bump = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
        kwargs, area, f = dict(d=d, ctx=ctx, bulk="quadratic", f=bump), False, bump.values
    prox = _ContactProx(d, ctx, g.boundary(), g.mask.shape, h)
    energy, iterates = solver._scaled_energy, []
    monkeypatch.setattr(solver, "_scaled_energy",
                        lambda u, *a: iterates.append(u.copy()) or energy(u, *a))
    res = minimize_energy(g, iters=iters, tol=0.0, **kwargs)
    monkeypatch.undo()
    rows = np.flatnonzero(~np.isnan(res.energy_history))
    assert rows.tolist() == [solver.GAP_EVERY - 1, 2 * solver.GAP_EVERY - 1, iters - 1]
    assert len(iterates) == len(rows) <= math.ceil(iters / solver.GAP_EVERY) + 1
    for k, u in zip(rows, iterates):
        assert minimize_energy(g, iters=k + 1, tol=0.0, **kwargs).u.values.tobytes() \
            == u.tobytes()
        want = energy(u, solver._grad(u, h, g.neighbor_masks()), g.mask, 1.0, beta, area, f,
                      prox)
        assert res.energy_history[k] == pytest.approx(want, rel=1e-12)
    assert np.array_equal(np.isnan(res.gap_history), np.isnan(res.energy_history))
    assert res.gap_relative == res.gap / max(1.0, abs(res.energy_history[-1]))


def test_diagnostics_converged_run():
    # 77 iterations; the recorded rows of this solve's energy are monotone
    # from iteration 10 on, here and at h = 1/32 and 1/64 (159 and 324)
    res = minimize_energy(SQ.grid(1 / 16), bulk="capillarity", nu=0.4, iters=4000, tol=1e-6)
    assert res.residual_history[-1] < 1e-6
    assert res.dual_feasibility_max <= res.dual_bound + 1e-12
    recorded = res.energy_history[9:][~np.isnan(res.energy_history[9:])]
    assert np.all(np.diff(recorded) <= 1e-8 * max(1.0, np.abs(recorded).max()))


def test_capillarity_solve_default_step_pinned():
    # step ratio 6: 327 over-relaxed iterations at h = 1/64, where
    # the plain iteration took 596, certified by the primal-dual gap
    res = minimize_energy(SQ.grid(1 / 64), bulk="capillarity", nu=0.5, iters=4000, tol=1e-6)
    assert solver.STEP_RATIO == 6.0
    assert solver.RELAX == 1.8
    assert res.iterations == 327
    assert res.gap_relative <= 1e-7
    rows = np.flatnonzero(~np.isnan(res.gap_history))
    assert rows.tolist() == list(range(solver.GAP_EVERY - 1, 327, solver.GAP_EVERY)) + [326]
    assert np.flatnonzero(~np.isnan(res.energy_history)).tolist() == rows.tolist()
    assert np.all(res.gap_history[rows] >= 0.0)
    assert res.dual_feasibility_max <= res.dual_bound


@pytest.mark.parametrize("d", [density.linear(-0.4), density.absolute(0.3)],
                         ids=["linear", "absolute"])
def test_relaxed_tv_solve_certifies_the_returned_pair(d):
    # a jump of 4 in f saturates |xi| = 1 along it, where a relaxed xi_k
    # overshoots the unit ball; the gap and the feasibility are those of the
    # prox outputs, which the solver returns
    dom, h = builtin_domain("lshape"), 1 / 32
    g = dom.grid(h)
    f = field_from_function(g, lambda X, Y: 4.0 * (X + Y > 1.0))
    res = minimize_energy(g, d=d, ctx=YosidaContext(1.0), bulk="quadratic", f=f,
                          iters=600, tol=1e-6)
    rows = np.flatnonzero(~np.isnan(res.gap_history))
    assert rows[-1] == res.iterations - 1 and len(rows) >= res.iterations // 10
    assert np.all(res.gap_history[rows] >= 0.0)
    xx, yy = res.xi
    assert 1.0 - 1e-9 <= np.sqrt(xx * xx + yy * yy).max() <= 1.0 + 1e-12
    prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    u = res.u.values
    gx, gy = solver._grad(u, h, g.neighbor_masks())
    want = (np.sqrt(gx * gx + gy * gy)[g.mask].sum() + ((u - f.values) ** 2)[g.mask].sum()
            + (prox.W * prox.transform.hat(u.reshape(-1)[prox.cells])).sum())
    assert res.energy_history[-1] == pytest.approx(want, rel=1e-12)


def test_capillarity_solve_memory():
    # the relaxed loop carries K* xi and xi - s grad u besides u and u~, in
    # place; a loop with a fresh buffer for each image would pass 18 lattice
    # arrays.  Once warm, a 20-iteration solve peaks at 16.2 arrays
    # (16.6 with the strided gradient kernels), so one more temporary per
    # iteration breaks the bound of 17
    g = SQ.grid(1 / 128)
    g.neighbor_masks()
    g.boundary()
    peaks = []
    tracemalloc.start()
    try:
        for iters in (200, 20):
            tracemalloc.reset_peak()
            minimize_energy(g, bulk="capillarity", nu=0.5, iters=iters, tol=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    cold, warm = peaks
    assert cold < 18 * g.mask.size * 8
    assert warm <= 17 * g.mask.size * 8


@pytest.mark.parametrize("kwargs", [{"nu": np.nan}, {"nu": np.inf}, {"nu": -np.inf}])
def test_minimize_energy_rejects_non_finite_inputs_before_iterating(kwargs, monkeypatch):
    # a NaN nu ran the whole budget on NaN iterates and then failed in GridField
    calls = []
    monkeypatch.setattr(solver, "_grad", lambda *a: calls.append(1))
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be a finite number"):
        minimize_energy(SQ.grid(1 / 16), bulk="capillarity", iters=5, **{"nu": 0.5, **kwargs})
    assert calls == []


def test_benchmark_solve_gap_is_a_certificate():
    # the capillarity benchmark solve: every recorded gap is >= 0, and the
    # last bounds P(u) - min P far below the residual rule's stop
    res = minimize_energy(SQ.grid(1 / 128), bulk="capillarity", nu=0.5, iters=5000, tol=1e-6)
    gaps = res.gap_history[~np.isnan(res.gap_history)]
    assert len(gaps) == res.iterations // solver.GAP_EVERY + 1
    assert np.all(gaps >= 0.0)
    assert res.gap_relative <= 1e-7


def test_table_contact_gap_is_a_certificate():
    # the benchmark's table density: its gap confirms the stop; the two-well
    # table's gap is >= 0 on every recorded row but need not close
    g = SQ.grid(1 / 16)
    bump = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    table = density.expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0)
    res = minimize_energy(g, d=table, ctx=YosidaContext(1.0), bulk="quadratic", f=bump,
                          iters=4000, tol=1e-6)
    assert res.residual <= 1e-6 and res.iterations < 4000
    _assert_gap_certifies(res, 1e-6)
    two_well = density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    with pytest.warns(NonconvexBoundaryTerm):
        res = minimize_energy(g, d=two_well, ctx=YosidaContext(1.0), bulk="quadratic", f=bump,
                              iters=300, tol=1e-6)
    # its step falls below tol, so every later row is recorded, but the gap
    # (about 416) does not confirm the stop, and the solve runs to iters
    assert res.iterations == 300 and res.residual <= 1e-6
    gaps = res.gap_history[~np.isnan(res.gap_history)]
    assert len(gaps) >= 30 and np.all(gaps >= 0.0) and res.gap_relative > 1.0


def test_convex_envelope_table_solve_reaches_tol():
    # 2*max(abs(p)-1, 0) on disk64: a prox that returned nodes stalled at a
    # residual of 0.375 after 5000 iterations; the exact prox stops at 2674
    g = builtin_domain("disk64").grid(1 / 32)
    bump = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    d = density.expression("2*max(abs(p)-1, 0)", c=0.0, L=0.0)
    res = minimize_energy(g, d=d, ctx=YosidaContext(1.0), bulk="quadratic", f=bump,
                          iters=5000, tol=1e-6)
    assert res.residual <= 1e-6
    assert res.gap_relative <= 1e-6
    assert np.all(res.gap_history[~np.isnan(res.gap_history)] >= 0.0)


# case -> (area mode, contact density, d tau_hat / dv at v != 0)
GAP_CASES = {
    "capillarity": (True, density.linear(0.5), lambda v: 0.5),
    "linear": (False, density.linear(-0.4), lambda v: -0.4),
    "absolute": (False, density.absolute(0.3), lambda v: 0.3 * np.sign(v)),
    "absolute-nonconvex": (False, density.absolute(-0.3), None),
    "quadratic": (False, density.quadratic(),
                  lambda v: np.where(np.abs(v) <= 0.5, 2.0 * v, np.sign(v))),
    "no-contact": (False, density.linear(0.0), lambda v: 0.0),
    "table": (False, density.expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0), "table"),
    "table-nonconvex": (False, density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0),
                        None),
}
GAP_DOMAINS = {"square": SQ, "lshape": builtin_domain("lshape")}


def _saddle(dom, case, rng, h=1 / 32, beta=1e-3):
    """A gap function P(u) - D(xi) of the solver's scaled objective and a pair
    (u, xi) with the forcing f at which it vanishes: xi = grad F(grad u) and f
    chosen so that -K* xi lies in dG(u) cell by cell.  A table's slope is
    that of the segment holding v."""
    area, d, slope = GAP_CASES[case]
    g = dom.grid(h)
    mask, ok = g.mask, g.neighbor_masks()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonconvexBoundaryTerm)
        contact = _ContactProx(d, YosidaContext(1.0), g.boundary(), mask.shape, h)
    if slope == "table":
        table = contact.transform
        slope = lambda v: table.slope[np.searchsorted(table.qs, v) - 1]   # noqa: E731

    def gap(u, xi, f):
        primal = solver._scaled_energy(u, solver._grad(u, h, ok), mask, 1.0, beta, area, f,
                                       contact)
        kxi = solver._grad_adjoint(xi, h, ok)
        return primal - solver._dual_value(kxi, xi, mask, beta, area, f, contact), primal

    u = np.where(mask, rng.normal(size=mask.shape), 0.0)
    gu = solver._grad(u, h, ok)
    norm = np.sqrt(gu[0] * gu[0] + gu[1] * gu[1])
    den = np.sqrt(beta * beta + norm * norm) if area else np.where(norm > 0, norm, 1.0)
    xi = gu / den
    f = u + 0.5 * solver._grad_adjoint(xi, h, ok)
    if slope is not None:
        f.reshape(-1)[contact.cells] += 0.5 * contact.W * slope(u.reshape(-1)[contact.cells])
    return gap, u, xi, np.where(mask, f, 0.0), mask


@pytest.mark.parametrize("dom", GAP_DOMAINS)
@pytest.mark.parametrize("case", GAP_CASES)
@given(seed=st.integers(0, 2 ** 32 - 1), eps_u=st.sampled_from([0.0, 1e-9, 1e-4, 1.0]),
       eps_xi=st.sampled_from([0.0, 1e-9, 1e-4, 1.0]))
@settings(max_examples=15, deadline=None)
def test_gap_weak_duality(dom, case, seed, eps_u, eps_xi):
    # P(u) - D(xi) >= 0 for every u and every xi with |xi| <= 1, here near a
    # saddle (where a too-small G* would show) and far from it
    rng = np.random.default_rng(seed)
    gap, u, (xx, yy), f, mask = _saddle(GAP_DOMAINS[dom], case, rng)
    u = u + eps_u * np.where(mask, rng.normal(size=mask.shape), 0.0)
    xx = xx + eps_xi * rng.normal(size=mask.shape)
    yy = yy + eps_xi * rng.normal(size=mask.shape)
    scale = np.maximum(1.0, np.sqrt(xx * xx + yy * yy))
    value, primal = gap(u, np.stack([xx, yy]) / scale, f)
    assert value >= -1e-12 * (1.0 + abs(primal))


@pytest.mark.parametrize("dom", GAP_DOMAINS)
@pytest.mark.parametrize("case", [c for c in GAP_CASES if GAP_CASES[c][2] is not None])
def test_gap_vanishes_at_a_saddle(dom, case):
    # the two-sided check: a G* or F* that is too large leaves a gap here
    gap, u, xi, f, _ = _saddle(GAP_DOMAINS[dom], case, np.random.default_rng(3))
    value, primal = gap(u, xi, f)
    assert abs(value) <= 1e-12 * (1.0 + abs(primal))
