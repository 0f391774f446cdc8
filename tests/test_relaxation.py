import math

import numpy as np
import pytest

from bvcontact import density, relaxation
from bvcontact.density import YosidaContext
from bvcontact.errors import SchemaError
from bvcontact.geometry import admissibility_check, regular_ngon, unit_square
from bvcontact.grid import constant_field, energy_F, field_from_function, l1_distance
from bvcontact.relaxation import (E1Family, E2Family, Log1DFamily, CatalogReport,
                                  counterexample_energy, family_by_name, relaxed_energy,
                                  verify_representation)

SQRT2 = math.sqrt(2.0)


# -- E1: corner jumps on the square ---------------------------------------------------


def test_e1_member_energy_constant_in_n():
    fam = E1Family(lam=-0.8)
    vals = [fam.member_energy(n) for n in (4, 8, 16, 32)]
    assert all(v == pytest.approx(SQRT2 - 1.6, abs=1e-12) for v in vals)
    assert vals[0] == pytest.approx(-0.18578643762690495, abs=1e-12)


def test_e1_exact_mode_matches_closed_form():
    fam = E1Family(lam=-0.8)
    spec = fam.member(16, h=1 / 128)
    rep = energy_F(spec.realization, fam.density, fam.sigma,
                   exact_jump_set=spec.jump_set, exact_trace=spec.exact_trace)
    assert rep.validity == "exact_closed_form"
    assert rep.total == pytest.approx(fam.member_energy(16), abs=1e-9)


def test_e1_grid_confirms_closed_form():
    fam = E1Family(lam=-0.8)
    spec = fam.member(8, h=1 / 512)
    rep = energy_F(spec.realization, fam.density, fam.sigma)
    assert rep.validity == "grid_estimate"
    assert rep.total == pytest.approx(fam.member_energy(8), rel=0.03)


def test_e1_l1_convergence_decreasing():
    fam = E1Family(lam=-0.8)
    h = 1 / 128
    limit = fam.limit_field(h)
    dists = [l1_distance(fam.member(n, h).realization, limit) for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    # analytic mass of the wedge: 1/(2n)
    assert dists[0] == pytest.approx(1 / 8, rel=0.2)


def test_e1_violation_threshold():
    assert counterexample_energy(E1Family(-0.75)).violated
    assert not counterexample_energy(E1Family(-0.65)).violated
    # scan brackets the crossover at sqrt(2)/2
    flips = [counterexample_energy(E1Family(lam)).violated
             for lam in (-0.65, -0.70, -0.71, -0.75)]
    assert flips == [False, False, True, True]


def test_e1_violation_gap_value():
    rep = counterexample_energy(E1Family(-0.9))
    assert rep.violated
    assert rep.gap == pytest.approx(abs(SQRT2 - 1.8), abs=1e-12)
    assert rep.limit_energy_F == 0.0


# -- E2: radial tents on the disk surrogate --------------------------------------------


def test_e2_member_energy_formula():
    fam = E2Family(lam=2.0)
    # pi r_n^2 + (n-1) pi (1 - r_n^2), r_n = (n-1)/n
    for n in (4, 32):
        r = (n - 1) / n
        assert fam.member_energy(n) == pytest.approx(
            math.pi * r * r + (n - 1) * math.pi * (1 - r * r))
    assert fam.sequence_limit == pytest.approx(3 * math.pi)


def test_e2_gap_converges_to_minus_two_pi_lam_minus_one():
    lam = 2.0
    fam = E2Family(lam)
    gap_n = fam.member_energy(64) - fam.limit_energy_F
    target = -2.0 * math.pi * (lam - 1.0)
    assert gap_n == pytest.approx(target, rel=0.05)


def test_e2_violation_iff_lam_above_sigma():
    results = {lam: counterexample_energy(E2Family(lam)).violated
               for lam in (0.9, 1.0, 1.1)}
    assert results == {0.9: False, 1.0: False, 1.1: True}


def test_e2_limit_energies():
    fam = E2Family(2.0)
    assert fam.limit_energy_F == pytest.approx(math.pi + 4 * math.pi)
    assert fam.limit_energy_H == pytest.approx(3 * math.pi)


def test_e2_grid_tv_confirms_member():
    fam = E2Family(2.0)
    spec = fam.member(16, h=1 / 256)
    from bvcontact.grid import tv_grid
    assert tv_grid(spec.realization) == pytest.approx(fam.member_energy(16), rel=0.05)


# -- LOG1D ------------------------------------------------------------------------------


def test_log1d_exact_zero():
    fam = Log1DFamily()
    for n in (10, 100, 1000):
        assert fam.member_energy(n) == 0.0


def test_log1d_grid_value_small():
    fam = Log1DFamily()
    spec = fam.member(100, 1e-4)
    rep = energy_F(spec.realization, fam.density, 1.0)
    assert abs(rep.total) < 1e-2


def test_log1d_limit_outside_bv():
    rep = counterexample_energy(Log1DFamily())
    assert rep.liminf_energy == 0.0
    assert math.isinf(rep.limit_energy_F) and math.isinf(rep.limit_energy_H)
    assert rep.violated and math.isinf(rep.gap)


def test_family_by_name():
    assert family_by_name("E1", lam=-0.8).name.startswith("E1")
    assert family_by_name("e2", lam=2.0).name.startswith("E2")
    assert family_by_name("LOG1D").name == "LOG1D"
    with pytest.raises(SchemaError, match="'E3'"):
        family_by_name("E3")


def test_counterexample_energy_report():
    rep = counterexample_energy(E1Family(-0.8), n_values=(4, 8, 16),
                                grid_check_n=8, h=1 / 256)
    assert isinstance(rep, CatalogReport)
    assert rep.per_n == [pytest.approx(SQRT2 - 1.6)] * 3
    assert rep.grid_checks["exact_mode_total"] == pytest.approx(SQRT2 - 1.6, abs=1e-9)
    assert rep.grid_checks["grid_mode_total"] == pytest.approx(SQRT2 - 1.6, rel=0.05)


def test_log1d_grid_check_evaluates_the_member_once(monkeypatch):
    # LOG1D has no exact jump set or trace: its grid check used to evaluate
    # energy_F twice with the same arguments and report the second value as
    # an exact-mode total
    calls = []
    real = relaxation.energy_F

    def spy(*args, **kw):
        calls.append(kw)
        return real(*args, **kw)

    monkeypatch.setattr(relaxation, "energy_F", spy)
    rep = counterexample_energy(Log1DFamily(), n_values=(10,), grid_check_n=10, h=1 / 64)
    assert calls == [{}]
    assert set(rep.grid_checks) == {"n", "h", "grid_mode_total", "closed_form"}


# -- the relaxed-energy oracle ----------------------------------------------------------


def test_relaxed_energy_admissible_square():
    g = unit_square().grid(1 / 64)
    d = density.linear(-0.5)
    rep = relaxed_energy(constant_field(g, 0.0), d, YosidaContext(1.0))
    assert rep.total == pytest.approx(0.0, abs=1e-12)
    assert rep.notes["representation_claimed"]
    assert rep.notes["admissibility"] == "almost_C1_clause"


def test_relaxed_energy_inadmissible_warns():
    g = unit_square().grid(1 / 64)
    d = density.linear(-0.9)
    rep = relaxed_energy(constant_field(g, 0.0), d, YosidaContext(1.0))
    assert rep.total == pytest.approx(0.0, abs=1e-12)
    assert not rep.notes["representation_claimed"]
    assert "warning" in rep.notes


@pytest.mark.parametrize("a, claimed", [(0.99, True), (1.0, False)])
def test_relaxed_energy_on_the_64gon(a, claimed):
    # the 64-gon's own threshold is cos(pi/64) = 0.99880, below the disk's
    # sigma = 1; H(u) is returned either way, flagged past the threshold
    g = regular_ngon(64).grid(1 / 64)
    u = field_from_function(g, lambda X, Y: np.hypot(X, Y))
    rep = relaxed_energy(u, density.absolute(a), YosidaContext(1.0))
    assert rep.notes["representation_claimed"] == claimed
    assert rep.notes["admissibility"] == ("almost_C1_clause" if claimed else "inadmissible")
    assert ("warning" in rep.notes) != claimed
    assert rep.total == pytest.approx(2.98 * math.pi, rel=0.05)


def test_representation_claimed_threshold():
    dom = unit_square()
    ok = admissibility_check(dom, density.linear(-0.70), 1.0, 0.0)
    bad = admissibility_check(dom, density.linear(-0.71), 1.0, 0.0)
    assert (ok.verdict, bad.verdict) == ("almost_C1_clause", "inadmissible")


# -- two-sided verification -------------------------------------------------------------


def test_verify_representation_admissible_square():
    g = unit_square().grid(1 / 128)
    d = density.linear(-0.5)
    rep = verify_representation(constant_field(g, 0.0), d, YosidaContext(1.0),
                                budget=64, seed=1)
    assert rep.upper_gap <= 0.05
    assert rep.lower_gap >= -0.05


def test_verify_representation_detects_e1_regime():
    g = unit_square().grid(1 / 128)
    d = density.linear(-0.9)
    rep = verify_representation(constant_field(g, 0.0), d, YosidaContext(1.0),
                                budget=64, seed=1)
    assert rep.lower_gap == pytest.approx(SQRT2 - 1.8, abs=0.02)
    assert "corner_wedge" in rep.lower_detail["worst_candidate"]
