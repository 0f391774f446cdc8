import contextlib

import numpy as np
import pytest

from bvcontact import density
from bvcontact.density import YosidaContext
from bvcontact.errors import NonconvexBoundaryTerm, UnboundedBelow, UnsupportedArity
from bvcontact.geometry import regular_ngon, unit_square
from bvcontact.grid import constant_field, energy_capillarity, field_from_function
from bvcontact.solver import _ContactProx, _dual_step_area, diagnostics, minimize_energy

SQ = unit_square()


def test_zero_fidelity_no_contact():
    res = minimize_energy(SQ, d=None, ctx=YosidaContext(1.0), bulk="quadratic",
                          h=1 / 64, iters=500, tol=1e-6)
    assert res.residual < 1e-6
    assert np.abs(res.u.values).max() == 0.0


def test_no_bulk_requires_override():
    with pytest.raises(ValueError):
        minimize_energy(SQ, d=density.linear(0.2), ctx=YosidaContext(1.0),
                        bulk="none", h=1 / 32)
    res = minimize_energy(SQ, d=density.linear(0.2), ctx=YosidaContext(1.0),
                          bulk="none", h=1 / 32, iters=200, allow_no_bulk=True)
    assert res.state.iterations == 200 or res.residual < 1e-6


def test_capillarity_beats_constant_oracle():
    nu = 0.5
    res = minimize_energy(SQ, bulk="capillarity", nu=nu, h=1 / 64,
                          iters=4000, tol=1e-6)
    # best constant: 1 + c^2 + 4 nu c minimized at c = -2 nu, value 1 - 4 nu^2
    oracle = 1.0 - 4.0 * nu * nu
    assert res.report.total <= oracle + 1e-3
    assert res.residual < 1e-6
    assert res.state.dual_feasibility_max <= res.state.dual_bound + 1e-12
    # the area dual step stops each cell at the root: 2 Newton steps here, 14
    # for the fixed loop it replaced
    assert res.state.notes["dual_newton_steps_max"] <= 3
    assert res.state.notes["dual_newton_correction_max"] <= 4.0 * np.finfo(float).eps


def test_capillarity_report_is_true_energy():
    res = minimize_energy(SQ, bulk="capillarity", nu=0.3, h=1 / 64,
                          iters=2000, tol=1e-6)
    direct = energy_capillarity(res.u, 0.3)
    assert res.report.total == pytest.approx(direct.total, rel=1e-12)


def test_disk_contact_beats_candidate_sweep():
    dom = regular_ngon(64)
    d = density.linear(-0.5)
    ctx = YosidaContext(1.0)
    res = minimize_energy(dom, d=d, ctx=ctx, bulk="quadratic", h=1 / 64,
                          iters=3000, tol=1e-6)
    g = dom.grid(1 / 64)

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
    xx, yy, steps, corr = _dual_step_area(zx, zy, s_beta)
    r = np.hypot(xx, yy)
    assert np.abs(r - _bisect_radial_root(np.hypot(zx, zy), s_beta)).max() <= 4e-15
    assert r.max() <= 1.0
    assert corr <= 4.0 * np.finfo(float).eps
    assert steps <= 30      # from r = 1 - 1e-15, |z| = 1.3 at s_beta = 1 needs 37


@pytest.mark.parametrize("kwargs", [{"iters": 0}, {"iters": -3}, {"beta": -1e-3},
                                    {"beta": np.inf}, {"beta": np.nan}])
def test_minimize_energy_rejects_bad_iters_and_beta(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        minimize_energy(SQ, bulk="capillarity", nu=0.5, h=1 / 16, **kwargs)


def test_capillarity_runs_at_beta_zero():
    res = minimize_energy(SQ, bulk="capillarity", nu=0.5, h=1 / 16, iters=50,
                          tol=0.0, beta=0.0)
    assert np.all(np.isfinite(res.u.values))
    assert res.state.dual_feasibility_max <= 1.0


def test_dual_feasibility_exact_tv_mode():
    d = density.linear(-0.4)
    res = minimize_energy(SQ, d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                          f=constant_field(SQ.grid(1 / 32), 1.0), h=1 / 32,
                          iters=400, tol=0.0)
    xx, yy = res.state.xi
    assert np.hypot(xx, yy).max() <= 1.0 + 1e-12


def _probe_prox(d, step, z, h=1 / 8):
    """_ContactProx.apply at the constant field z on the square, with
    t * W = step on the non-corner probe cells; returns their values."""
    g = SQ.grid(h)
    prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    side = prox.W == prox.W.min()       # corner cells collect two edges
    out = prox.apply(np.full(g.mask.shape, float(z)), step / prox.W.min())
    vals = out[prox.cells][side]
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
    # each expression goes through the tabulated grid search, its builtin twin
    # through the closed-form resolvent; both are the same resolvent up to the
    # 0.003 node step, and give the same contact energy
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
                    assert abs(got - want) <= 0.003 + 1e-12, (text, z, step, got, want)
            energy = [_ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape,
                                   1 / 8).energy(u) for d in (table, closed)]
        assert energy[0] == pytest.approx(energy[1], rel=1e-12), text


def test_prox_rejects_unbounded_absolute_at_setup():
    g = SQ.grid(1 / 8)
    with pytest.raises(UnboundedBelow):
        _ContactProx(density.absolute(-2.0), YosidaContext(1.0), g.boundary(),
                     g.mask.shape, 1 / 8)


@pytest.mark.parametrize("d", [density.absolute(0.5, value_dim=2),
                               density.quadratic(value_dim=2)], ids=["absolute", "quadratic"])
def test_prox_rejects_vector_density(d):
    # the field is scalar: a vector density's transform would read each probe
    # cell's value as one component of a single vector
    g = SQ.grid(1 / 8)
    with pytest.raises(UnsupportedArity):
        _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, 1 / 8)


def test_table_mode_solve_converges():
    # quadratic goes through the tabulated prox; a prox taken with the wrong
    # step leaves the residual stalled near 6e-2 after 2000 iterations
    g = SQ.grid(1 / 16)
    f = field_from_function(g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)))
    res = minimize_energy(SQ, d=density.quadratic(), ctx=YosidaContext(1.0),
                          bulk="quadratic", f=f, h=1 / 16, iters=2000, tol=1e-6)
    assert res.residual <= 1e-6


def _dense_table_argmin(prox, z, tw):
    obj = prox.table[None, :] * tw[:, None] + 0.5 * (prox.qs[None, :] - z[:, None]) ** 2
    return prox.qs[np.argmin(obj, axis=1)]


@pytest.mark.parametrize("expr, convex", [("p*p + 0.5*abs(p-0.25)", True),
                                          ("2*min(abs(p-1), abs(p+1))", False)])
def test_table_prox_window_matches_dense_argmin(expr, convex):
    # h = 1/128: side cells have W = 128, corner cells W = 256; the solver's
    # step t / (1 + 2t) makes t W about 2.7 and 5.4
    h = 1 / 128
    g = SQ.grid(h)
    d = density.expression(expr, c=0.0, L=0.0)
    if convex:
        prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    else:
        with pytest.warns(NonconvexBoundaryTerm):
            prox = _ContactProx(d, YosidaContext(1.0), g.boundary(), g.mask.shape, h)
    assert len(np.unique(prox.W)) == 2
    rng = np.random.default_rng(7)
    t_solver = 8.0 / (np.sqrt(8.0) / h)
    for t in (t_solver / (1 + 2 * t_solver), 1e-4, 0.1):
        for _ in range(10):
            z = rng.uniform(-9.0, 9.0, len(prox.W))    # nodes cover [-6, 6]
            u = np.zeros(g.mask.shape)
            u[prox.cells] = z
            got = prox.apply(u, t)[prox.cells]
            assert np.array_equal(got, _dense_table_argmin(prox, z, t * prox.W))


def test_table_prox_nodes_extend_past_the_data():
    # nodes that stop at 6 hold the boundary cells there: total 12.84
    g = SQ.grid(1 / 32)
    d = density.expression("0.01*abs(p-10)", c=0.0, L=0.01)
    res = minimize_energy(SQ, d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                          f=constant_field(g, 10.0), h=1 / 32, iters=2000, tol=1e-6)
    assert res.residual <= 1e-6
    assert res.report.total <= 1e-3
    assert np.abs(res.u.values[g.mask] - 10.0).max() <= 0.003


def test_nonconvex_contact_warns_and_runs():
    d = density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    with pytest.warns(NonconvexBoundaryTerm):
        res = minimize_energy(SQ, d=d, ctx=YosidaContext(1.0), bulk="quadratic",
                              h=1 / 32, iters=300, tol=1e-6)
    assert np.all(np.isfinite(res.u.values))


def test_diagnostics_converged_run():
    res = minimize_energy(SQ, bulk="capillarity", nu=0.4, h=1 / 64,
                          iters=4000, tol=1e-6)
    diag = diagnostics(res.state)
    assert diag["residual_curve"][-1] < 1e-6
    assert diag["dual_feasibility_max"] <= diag["dual_bound"] + 1e-12
    assert diag["monotone_energy_after_10"]


def test_diagnostics_detects_divergence():
    res = minimize_energy(SQ, bulk="capillarity", nu=0.4, h=1 / 32,
                          iters=400, tol=0.0, unsafe_step_product=16.0)
    diag = diagnostics(res.state)
    assert not diag["monotone_energy_after_10"]


def test_diagnostics_needs_two_iterations():
    res = minimize_energy(SQ, d=None, ctx=YosidaContext(1.0), bulk="quadratic",
                          h=1 / 32, iters=1, tol=0.0)
    with pytest.raises(ValueError):
        diagnostics(res.state)
