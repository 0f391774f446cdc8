"""Grid-refinement invariants: TV consistency order and the capillarity
existence-failure surrogate."""

import math

import numpy as np

from bvcontact.geometry import unit_square
from bvcontact.grid import energy_F, tv_grid
from bvcontact.relaxation import E1Family
from bvcontact.solver import minimize_energy


def test_tv_grid_consistency_order_on_jump_fields():
    # tv_grid converges to the closed-form jump value with order >= 0.9 in h
    # on the diagonal-jump members (the cell quantization error is ~ n*h)
    fam = E1Family(lam=-0.8)
    n = 4
    errs = []
    for h in (1 / 64, 1 / 128, 1 / 256):
        u = fam.member(n, h).realization
        errs.append(abs(tv_grid(u) - math.sqrt(2.0)))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) >= 0.9


def test_energy_F_grid_converges_to_catalog_value():
    fam = E1Family(lam=-0.8)
    exact = fam.member_energy(8)
    errs = []
    for h in (1 / 128, 1 / 256, 1 / 512):
        rep = energy_F(fam.member(8, h).realization, fam.density, 1.0)
        errs.append(abs(rep.total - exact))
    assert errs[0] > errs[-1]
    assert errs[-1] <= 0.03 * abs(exact)


def test_capillarity_existence_regimes():
    # inside the existence bound the minimizer is O(1); 20% above it the
    # boundary spike is resolution-limited and grows ~ 1/h under refinement
    ok = minimize_energy(unit_square().grid(1 / 64), bulk="capillarity", nu=0.5,
                         iters=3000, tol=1e-6)
    assert np.abs(ok.u.values).max() <= 10.0 * (1 + 0.5)

    norms = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        res = minimize_energy(unit_square().grid(h), bulk="capillarity", nu=0.85,
                              iters=4000, tol=1e-7)
        norms.append(float(np.abs(res.u.values).max()))
    assert norms[0] < norms[1] < norms[2]
    # far beyond the bounded-regime scale, and still doubling per refinement
    assert norms[2] > 5.0 * np.abs(ok.u.values).max()
    assert norms[2] / norms[1] > 1.5
