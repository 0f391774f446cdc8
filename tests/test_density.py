import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvcontact import density
from bvcontact.density import (SurfaceDensity, YosidaContext, absolute, eval_density,
                               expression, linear, lip_upper_approx,
                               lip_upper_approx_many, quadratic, step_density,
                               tabulated, upper_envelope_T, verify_lower_bound,
                               yosida_eval, yosida_eval_many, yosida_radius)
from bvcontact.errors import DegenerateMargin, UnboundedBelow
from bvcontact.geometry import unit_square

X = (0.0, 0.0)


def oracle_yosida(d, sigma, x, p, radius=12.0, n=480_001):
    """Independent reference: dense-grid inf of tau(x,q) + sigma|p-q|."""
    q = np.linspace(p - radius, p + radius, n)
    return float((d.eval_many(x, q) + sigma * np.abs(p - q)).min())


# -- evaluation and the lower bound ------------------------------------------------


def test_eval_builtin_kinds():
    assert eval_density(linear(-0.8), X, 2.0) == pytest.approx(-1.6)
    assert eval_density(absolute(2.0), X, -3.0) == pytest.approx(6.0)
    assert eval_density(quadratic(), X, 0.5) == pytest.approx(0.25)


def test_eval_rejects_nonfinite_and_offboundary():
    with pytest.raises(ValueError):
        eval_density(linear(1.0), X, float("nan"))
    with pytest.raises(ValueError):
        eval_density(linear(1.0), (0.5, 0.5), 1.0, dom=unit_square())
    # on-boundary point passes
    assert eval_density(linear(1.0), (0.5, 0.0), 1.0, dom=unit_square()) == 1.0


def test_eval_vector_values():
    d = absolute(2.0, value_dim=2)
    assert eval_density(d, X, np.array([3.0, 4.0])) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        eval_density(d, X, 1.0)


def test_lower_bound_equality_case():
    d = linear(-0.8, L=0.8)
    rep = verify_lower_bound(d, [(X, np.linspace(-5, 5, 101))])
    assert rep.holds and rep.worst_violation == 0.0


def test_lower_bound_quadratic():
    rep = verify_lower_bound(quadratic(), [(X, np.linspace(-5, 5, 101))])
    assert rep.holds


def test_lower_bound_failure_slope():
    d = linear(-2.0, c=0.0, L=1.0)
    ps = np.linspace(-4, 4, 81)
    rep = verify_lower_bound(d, [(X, ps)])
    # slack = -2p + |p| has minimum -(p_max) at the largest positive p
    assert not rep.holds
    assert rep.worst_violation == pytest.approx(-4.0)


def test_lower_bound_estimation_for_expression():
    d = expression("0.5*abs(p) - 1")
    assert d.lower_bound_estimated
    rep = verify_lower_bound(
        SurfaceDensity(kind="expression", expr_text=d.expr_text, c=1.0, L=0.5),
        [(X, np.linspace(-8, 8, 201))])
    assert rep.holds


# -- the sigma-Yosida transform -----------------------------------------------------


def test_fixed_point_for_sigma_lipschitz_linear():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval(linear(-0.5), ctx, X, 3.0) == pytest.approx(-1.5, abs=1e-12)


def test_quadratic_closed_form_value():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval(quadratic(), ctx, X, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert yosida_eval(quadratic(), ctx, X, 0.3) == pytest.approx(0.09, abs=1e-12)


def test_quadratic_brute_force_matches_piecewise():
    ctx = YosidaContext(sigma=1.0)
    for p in np.linspace(-2, 2, 41):
        expected = p * p if abs(p) <= 0.5 else abs(p) - 0.25
        got = yosida_eval(quadratic(), ctx, X, float(p), force_bruteforce=True)
        assert got == pytest.approx(expected, abs=1e-3)


def test_absolute_transform_caps_slope():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval(absolute(2.0), ctx, X, 1.0) == pytest.approx(1.0, abs=1e-12)
    # grid path needs an explicit radius since sup L = 2 > sigma
    ctx2 = YosidaContext(sigma=1.0, search_radius=6.0, q_grid_step=2e-4)
    got = yosida_eval(absolute(2.0), ctx2, X, 1.0, force_bruteforce=True)
    assert got == pytest.approx(oracle_yosida(absolute(2.0), 1.0, X, 1.0), abs=1e-3)


def test_unbounded_below_linear():
    ctx = YosidaContext(sigma=1.0)
    with pytest.raises(UnboundedBelow):
        yosida_eval(linear(-2.0), ctx, X, 0.0)


def test_unbounded_below_detected_by_grid_search():
    # tau(q) = -2|q| declared with a wrong slope bound: the boundary descent
    # test must still catch the -infinity
    d = SurfaceDensity.from_callable(lambda x, P: -2.0 * np.abs(P), c=0.0, L=0.5)
    ctx = YosidaContext(sigma=1.0, search_radius=5.0)
    with pytest.raises(UnboundedBelow):
        yosida_eval(d, ctx, X, 0.0)


def test_yosida_radius_values():
    assert yosida_radius(absolute(0.5), 1.0, X, 0.0) == pytest.approx(2.0)
    assert yosida_radius(linear(0.0), 1.0, X, 1.0) == pytest.approx(3.0)


def test_yosida_radius_degenerate_margin():
    with pytest.raises(DegenerateMargin):
        yosida_radius(absolute(1.0), 1.0, X, 0.0)


def test_radius_contains_near_optimal_points():
    # any q with tau(q) + sigma|p-q| <= tau(p) + 1 must satisfy |q| <= R
    d = expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    sigma = 1.0
    for p in (-2.0, 0.0, 0.7, 3.0):
        R = yosida_radius(d, sigma, X, p)
        q = np.linspace(-3 * R, 3 * R, 30001)
        vals = d.eval_many(X, q) + sigma * np.abs(p - q)
        taup = d.eval_many(X, np.array([p]))[0]
        assert np.abs(q[vals <= taup + 1.0]).max() <= R + 1e-9


@given(p=st.floats(-3, 3), lam=st.floats(-0.99, 0.99))
@settings(max_examples=60, deadline=None)
def test_fixed_point_property_brute_force(p, lam):
    # sigma-Lipschitz densities are fixed points, also along the grid path
    d = linear(lam)
    ctx = YosidaContext(sigma=1.0)
    got = yosida_eval(d, ctx, X, p, force_bruteforce=True)
    assert got == pytest.approx(lam * p, abs=1e-6)


def test_transform_is_sigma_lipschitz():
    d = expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-3, 3, 121)
    vals = yosida_eval_many(d, ctx, X, ps)
    slopes = np.abs(np.diff(vals)) / np.diff(ps)
    assert slopes.max() <= 1.0 + 2e-2  # sigma + grid slack


def test_transform_many_points_share_one_grid():
    # 4001 p values span several row chunks; a q-grid per chunk leaves concave
    # seams (second difference -3.8e-4) and a slope of 1.127 > sigma
    d = expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0)
    ps = np.linspace(-6, 6, 4001)
    vals = yosida_eval_many(d, YosidaContext(sigma=1.0), X, ps)
    assert np.abs(np.diff(vals)).max() <= 1.0 * (ps[1] - ps[0]) * (1 + 1e-12)
    assert np.diff(vals, 2).min() >= -1e-12


def test_transform_dominated_by_density():
    d = expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-3, 3, 121)
    assert np.all(yosida_eval_many(d, ctx, X, ps) <= d.eval_many(X, ps) + 1e-9)


def test_transform_idempotent():
    base = expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-2.5, 2.5, 81)
    once = yosida_eval_many(base, ctx, X, ps)
    hat = tabulated(ps, once, interp="linear")
    twice = yosida_eval_many(hat, ctx, X, ps, force_bruteforce=True)
    assert np.allclose(once, twice, atol=2e-3)


def test_transform_monotone_in_density():
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-2, 2, 61)
    lo = expression("min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    hi = expression("min(abs(p-1), abs(p+1)) + 0.3", c=0.0, L=0.0)
    v_lo = yosida_eval_many(lo, ctx, X, ps)
    v_hi = yosida_eval_many(hi, ctx, X, ps)
    assert np.all(v_lo <= v_hi + 1e-9)


def test_transform_preserves_lower_bound():
    d = expression("2*min(abs(p-1), abs(p+1)) - 0.5", c=0.5, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    ps = np.linspace(-4, 4, 161)
    vals = yosida_eval_many(d, ctx, X, ps)
    assert np.all(vals >= -0.5 - 1.0 * np.abs(ps) - 1e-6)


def test_vector_closed_forms():
    ctx = YosidaContext(sigma=1.0)
    p = np.array([0.6, 0.8])  # |p| = 1
    assert yosida_eval(absolute(2.0, value_dim=2), ctx, X, p) == pytest.approx(1.0)
    assert yosida_eval(quadratic(value_dim=2), ctx, X, p) == pytest.approx(0.75)


# -- upper envelope and the approximation ladder -------------------------------------


def test_envelope_constant_negative():
    d = SurfaceDensity.from_callable(lambda x, P: np.full_like(np.asarray(P, float), -5.0),
                                     c=5.0, L=0.0)
    for p in (-3.0, 0.0, 1.7):
        assert upper_envelope_T(d, X, p) == 0.0


def test_envelope_quadratic_at_unit_radius():
    # |p| = 1 sits on the plateau of the first hat: T = M_3 = 9
    assert upper_envelope_T(quadratic(), X, 1.0) == pytest.approx(9.0, rel=1e-6)
    # halfway between the hats: mix of M_3 = 9 and M_4 = 16
    assert upper_envelope_T(quadratic(), X, 1.5) == pytest.approx(12.5, rel=1e-6)


def test_envelope_linear_at_origin():
    assert upper_envelope_T(linear(1.0), X, 0.0) == pytest.approx(3.0, rel=1e-6)


def test_envelope_dominates_density():
    d = expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    for p in np.linspace(-3, 3, 25):
        assert upper_envelope_T(d, X, p) >= d.eval_many(X, np.array([p]))[0] - 1e-6


def test_ladder_fixed_point_for_smooth_small_density():
    # tau continuous, <= T, and 1-Lipschitz: the sup is attained at q = p
    d = SurfaceDensity.from_callable(lambda x, P: -np.abs(np.asarray(P, float)),
                                     c=0.0, L=1.0)
    for p in (-1.0, 0.2, 2.0):
        assert lip_upper_approx(d, 2, X, p) == pytest.approx(-abs(p), abs=1e-6)


def test_ladder_step_density_values():
    d = step_density()
    assert lip_upper_approx(d, 2, X, 0.25) == pytest.approx(-0.5, abs=1e-3)
    # monotone limit toward tau at a continuity point
    vals = [lip_upper_approx(d, k, X, 0.25) for k in (1, 2, 4, 8, 16, 32, 64)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(-1.0, abs=1e-6)


def test_ladder_decreasing_and_above_density():
    d = step_density()
    ps = np.linspace(-2, 2, 201)
    prev = None
    for k in (1, 2, 4, 8):
        vals = lip_upper_approx_many(d, k, X, ps)
        assert np.all(vals >= d.eval_many(X, ps) - 1e-9)
        if prev is not None:
            assert np.all(vals <= prev + 1e-9)
        prev = vals


def test_tabulated_pc_left_encodes_step():
    d = tabulated([-1.0, 0.0], [0.0, -1.0], interp="pc-left")
    got = d.eval_many(X, np.array([-0.5, 0.0, 0.5]))
    # value -1 on [0, inf): left-closed convention differs from step_density
    assert got[0] == 0.0 and got[1] == -1.0 and got[2] == -1.0


def test_spec_text_roundtrip():
    for d in (linear(-0.8), absolute(2.0), quadratic()):
        from bvcontact.cli import parse_density_spec
        back = parse_density_spec(d.spec_text())
        ps = np.linspace(-3, 3, 11)
        assert np.array_equal(back.eval_many(X, ps), d.eval_many(X, ps))
