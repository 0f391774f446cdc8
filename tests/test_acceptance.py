"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (the prints) in addition to the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from bvcontact import density
from bvcontact.cli import run_scenario
from bvcontact.corpus import random_fields
from bvcontact.density import (YosidaContext, lip_upper_approx_many, step_density,
                               tabulated, yosida_eval_many)
from bvcontact.geometry import (admissibility_check, corner_q, domain_Q, l_shape,
                                regular_ngon, unit_square, wedge_cut_ratio)
from bvcontact.grid import (constant_field, energy_F, field_from_function, l1_norm,
                            trace_extract, tv_grid)
from bvcontact.relaxation import (E1Family, E2Family, Log1DFamily,
                                  counterexample_energy, verify_representation)
from bvcontact.solver import minimize_energy

X0 = (0.0, 0.0)


def _report(n, text):
    print(f"\ncriterion {n} PASS: {text}")


def test_criterion_01_yosida_closed_forms():
    start = time.monotonic()
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-2.0, 2.0, 1000)
    expected = np.where(np.abs(ps) <= 0.5, ps ** 2, np.abs(ps) - 0.25)
    got = yosida_eval_many(density.quadratic(), ctx, X0, ps)
    err_closed = np.abs(got - expected).max()
    assert err_closed <= 1e-3
    got_bf = yosida_eval_many(density.quadratic(), ctx, X0, ps, force_bruteforce=True)
    err_bf = np.abs(got_bf - expected).max()
    assert err_bf <= 1e-3
    # fixed point for sigma-Lipschitz densities (closed form and grid path;
    # the borderline slope |lam| = sigma needs an explicit search radius)
    for lam in (-1.0, -0.9, -0.3, 0.5, 1.0):
        d = density.linear(lam)
        assert np.abs(yosida_eval_many(d, ctx, X0, ps) - lam * ps).max() <= 1e-12
        ctx_b = ctx if abs(lam) < 1.0 else YosidaContext(1.0, search_radius=8.0)
        fp = yosida_eval_many(d, ctx_b, X0, ps, force_bruteforce=True)
        assert np.abs(fp - lam * ps).max() <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"piecewise formula within {max(err_closed, err_bf):.2e}, "
               f"fixed point within 1e-6, {elapsed:.2f}s")


def test_criterion_02_e1_reproduction():
    start = time.monotonic()
    lam = -0.8
    fam = E1Family(lam)
    exact = math.sqrt(2.0) + 2.0 * lam
    assert exact == pytest.approx(-0.18578643762690495, abs=1e-12)
    per_n = [fam.member_energy(n) for n in (4, 8, 16, 32)]
    assert all(v == pytest.approx(exact, abs=1e-12) for v in per_n)
    spec = fam.member(8, h=1 / 512)
    grid_total = energy_F(spec.realization, fam.density, fam.sigma).total
    rel = abs(grid_total - exact) / abs(exact)
    assert rel <= 0.03
    assert counterexample_energy(E1Family(-0.75)).violated
    assert not counterexample_energy(E1Family(-0.65)).violated
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(2, f"exact {exact:.6f} constant in n, grid within {rel:.1%}, "
               f"threshold flags correct, {elapsed:.1f}s")


def test_criterion_03_e2_reproduction():
    start = time.monotonic()
    lam = 2.0
    fam = E2Family(lam)
    gap_64 = fam.member_energy(64) - fam.limit_energy_F
    target = -2.0 * math.pi * (lam - 1.0)
    rel = abs(gap_64 - target) / abs(target)
    assert rel <= 0.05
    # grid realization at the stated resolution confirms the member energy
    spec = fam.member(64, h=1 / 512)
    tv_rel = abs(tv_grid(spec.realization) - fam.member_energy(64)) \
        / fam.member_energy(64)
    assert tv_rel <= 0.05
    flags = {l: counterexample_energy(E2Family(l)).violated for l in (0.9, 1.0, 1.1)}
    assert flags == {0.9: False, 1.0: False, 1.1: True}
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, f"gap at n=64 within {rel:.1%} of -2pi(lam-1), grid TV within "
               f"{tv_rel:.1%}, violation iff lam>1, {elapsed:.1f}s")


def test_criterion_04_log1d_example():
    fam = Log1DFamily()
    for n in (10, 100, 1000):
        assert fam.member_energy(n) == 0.0
    worst = 0.0
    for n in (10, 100, 1000):
        spec = fam.member(n, 1e-4)
        rep = energy_F(spec.realization, fam.density, 1.0)
        worst = max(worst, abs(rep.total))
    assert worst <= 1e-2
    _report(4, f"closed form exactly 0 for n in (10,100,1000); "
               f"grid value within {worst:.2e} at 1e4 cells")


def test_criterion_05_geometry():
    assert abs(corner_q(math.pi / 2) - math.sqrt(2.0)) <= 1e-12
    thetas = np.linspace(0.1, math.pi - 0.1, 50)
    worst = max(abs(wedge_cut_ratio(t, 0.37) - corner_q(t)) for t in thetas)
    assert worst <= 1e-10
    # admissibility flip on the square at L = sqrt(2)/2 (eps0 -> 0), bisection
    dom = unit_square()

    def admissible(Lval):
        rep = admissibility_check(dom, density.linear(-Lval), sigma=1.0,
                                  epsilon0=0.0)
        return rep.verdict != "inadmissible"

    lo, hi = 0.5, 1.0
    assert admissible(lo) and not admissible(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    assert abs(flip - math.sqrt(2.0) / 2.0) <= 1e-4
    _report(5, f"corner_q(pi/2)=sqrt(2) to 1e-12, cut-ratio agreement {worst:.1e}, "
               f"admissibility flips at {flip:.6f}")


def test_criterion_06_extension_bounds(tmp_path):
    # every member at eps itself: a resolvability floor may not loosen a bound
    start = time.monotonic()
    eps = 0.1
    scn = {"task": "extend-verify", "domain": "square", "grid_h": 1 / 512, "seed": 11,
           "params": {"eps": eps, "n_corpus": 20}}
    r = run_scenario(scn, tmp_path)["result"]
    worst_l1, worst_grad = r["worst_l1_ratio"], r["worst_grad_ratio"]
    assert r["n_corpus"] == 20 and r["max_eps_effective"] == eps
    assert worst_l1 <= eps * 1.05
    assert worst_grad <= 1.0 + eps + 0.15
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(6, f"20-member corpus at h=1/512: worst l1_ratio {worst_l1:.4f} "
               f"<= {eps * 1.05}, worst grad_ratio {worst_grad:.4f} <= {1 + eps + 0.15}, "
               f"{elapsed:.1f}s")


def test_criterion_07_representation_sandwich():
    h = 1 / 256
    pairs = [
        (unit_square(), density.linear(-0.5), "square/linear(-0.5)"),
        (unit_square(), density.quadratic(), "square/quadratic"),
        (l_shape(), density.linear(0.4), "lshape/linear(0.4)"),
        (unit_square(),
         density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0),
         "square/two-well"),
        (regular_ngon(256), density.absolute(1.0), "disk256/absolute(1.0)"),
    ]
    ctx = YosidaContext(1.0)
    worst_upper, worst_lower = -math.inf, math.inf
    for dom, d, name in pairs:
        g = dom.grid(h)
        ctr = dom.vertices.mean(axis=0)
        fields = [constant_field(g, 0.0), constant_field(g, 0.7),
                  field_from_function(g, lambda X, Y: X),
                  field_from_function(g, lambda X, Y: np.hypot(X - ctr[0], Y - ctr[1])),
                  field_from_function(g, lambda X, Y: np.exp(
                      -8 * ((X - ctr[0]) ** 2 + (Y - ctr[1]) ** 2)))]
        for u in fields:
            rep = verify_representation(u, d, ctx, budget=64, seed=3)
            scale = 1.0 + abs(rep.H_value)
            assert rep.upper_gap <= 0.05 * scale, (name, rep.upper_gap, scale)
            assert rep.lower_gap >= -0.05 * scale, (name, rep.lower_gap, scale)
            worst_upper = max(worst_upper, rep.upper_gap / scale)
            worst_lower = min(worst_lower, rep.lower_gap / scale)
    _report(7, f"5 pairs x 5 fields, budget 64: worst upper_gap "
               f"{worst_upper:+.4f}, worst lower_gap {worst_lower:+.4f} (relative)")


def test_criterion_08_trace_inequality_suite():
    h = 1 / 128
    counts = {"square": 67, "lshape": 67, "disk256": 66}
    doms = {"square": unit_square(), "lshape": l_shape(), "disk256": regular_ngon(256)}
    total_checked = 0
    summary = []
    for name, dom in doms.items():
        g = dom.grid(h)
        Q = domain_Q(dom)

        def stats(fields):
            return [(trace_extract(u).abs_integral(), tv_grid(u), l1_norm(u))
                    for u in fields]

        train = stats(random_fields(g, 60, seed=1000))
        ratios = [max(0.0, (tr - (Q + 0.1) * tv) / m)
                  for tr, tv, m in train if m > 1e-12]
        C = max(1.25 * max(ratios), 0.5)
        ev = stats(random_fields(g, counts[name], seed=2000))
        violations = sum(1 for tr, tv, m in ev
                         if tr > (Q + 0.1) * tv + C * m + 1e-9)
        assert violations == 0, (name, violations)
        total_checked += len(ev)
        summary.append(f"{name}: C={C:.2f}")
        if name == "disk256":
            r2 = [max(0.0, (tr - tv) / m) for tr, tv, m in train if m > 1e-12]
            C2 = max(1.25 * max(r2), 0.5)
            v2 = sum(1 for tr, tv, m in ev if tr > tv + C2 * m + 1e-9)
            assert v2 == 0, ("coefficient-1 form", v2)
            summary.append(f"{name} coeff-1: C={C2:.2f}")
    assert total_checked == 200
    _report(8, f"200 fields, zero violations; fits {', '.join(summary)}")


def test_criterion_09_capillarity_solve():
    start = time.monotonic()
    nu = 0.5
    res = minimize_energy(unit_square().grid(1 / 128), bulk="capillarity", nu=nu,
                          iters=5000, tol=1e-6)
    oracle = 1.0 - 4.0 * nu * nu  # best constant: c = -2 nu
    assert res.report.total <= oracle + 1e-3
    assert res.residual < 1e-6
    assert res.iterations <= 5000
    assert res.dual_feasibility_max <= res.dual_bound + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(9, f"energy {res.report.total:+.2e} <= {oracle} + 1e-3, residual "
               f"{res.residual:.2e} in {res.iterations} iterations, "
               f"dual feasible, {elapsed:.1f}s")


def test_criterion_10_normal_integrand_ladder():
    d = step_density()  # 0 for p <= 0, -1 beyond: upper semicontinuous
    ps = np.linspace(-2.0, 2.0, 1000)
    tau = d.eval_many(X0, ps)
    ks = (1, 2, 4, 8, 16, 32, 64)
    prev = None
    ladder = {}
    for k in ks:
        vals = lip_upper_approx_many(d, k, X0, ps)
        ladder[k] = vals
        assert np.all(vals >= tau - 1e-9)
        if prev is not None:
            assert np.all(vals <= prev + 1e-9)
        prev = vals
        # |tau_k - tau| <= 2/k away from the jump (k * dist >= 1)
        far = np.abs(ps - 0.0) * k >= 1.0
        assert np.abs(vals[far] - tau[far]).max() <= 2.0 / k + 1e-6
    # transformed integrals along corpus traces converge monotonically:
    # int tau_hat_k decreases to int tau_hat (traces separated from the jump
    # beyond the k = 64 resolution 1/64, so the endpoint is within 1e-2)
    sq = unit_square().grid(1 / 128)
    fields = [field_from_function(sq, lambda X, Y: X + 0.2),
              constant_field(sq, 0.5),
              field_from_function(sq, lambda X, Y: np.hypot(X - 0.5, Y - 0.5) + 0.1),
              field_from_function(sq, lambda X, Y: 1.2 - Y)]

    def hat_exact(p):
        # closed form of the transformed step: -1 for p > 0, min(0, |p| - 1) else
        return np.where(p > 0, -1.0, np.minimum(0.0, np.abs(p) - 1.0))

    worst = 0.0
    kink_ks = (1, 4, 16, 64)
    for u in fields:
        tr = trace_extract(u)
        int_inf = float((tr.w * hat_exact(tr.values)).sum())
        prev_int = math.inf
        for k in kink_ks:
            pgrid = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 4801),
                                              [1.0 / k]]))
            tau_k = lip_upper_approx_many(d, k, X0, pgrid)
            dk = tabulated(pgrid, tau_k, interp="linear")
            ctx_k = YosidaContext(1.0, search_radius=4.0)
            hat_k = yosida_eval_many(dk, ctx_k, X0, tr.values, force_bruteforce=True)
            int_k = float((tr.w * hat_k).sum())
            assert int_k <= prev_int + 1e-6
            assert int_k >= int_inf - 1e-6
            prev_int = int_k
            if k == 64:
                worst = max(worst, abs(int_k - int_inf))
    assert worst <= 1e-2
    _report(10, f"ladder decreasing at 1e3 points, |tau_k - tau| <= 2/k at "
                f"separated continuity points, transformed integrals within "
                f"{worst:.2e} at k=64")
