import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bvcontact import density, exprgrammar
from bvcontact.density import (SurfaceDensity, YosidaContext, absolute, expression, linear,
                               lip_upper_approx_many, quadratic, step_density,
                               tabulated, upper_envelope_T, verify_lower_bound,
                               yosida_eval_many, yosida_radius)
from bvcontact.errors import DegenerateMargin, SchemaError, UnboundedBelow
from bvcontact.extension import optimal_boundary_values
from bvcontact.geometry import unit_square
from bvcontact.grid import field_from_function, trace_extract

X = (0.0, 0.0)


def oracle_yosida(d, sigma, x, p, radius=12.0, n=480_001):
    """Independent reference: dense-grid inf of tau(x,q) + sigma|p-q|."""
    q = np.linspace(p - radius, p + radius, n)
    return float((d.eval_many(x, q) + sigma * np.abs(p - q)).min())


# -- evaluation and the lower bound ------------------------------------------------


def test_eval_builtin_kinds():
    assert linear(-0.8).eval_many(X, [2.0]) == pytest.approx([-1.6])
    assert absolute(2.0).eval_many(X, [-3.0]) == pytest.approx([6.0])
    assert quadratic().eval_many(X, [0.5]) == pytest.approx([0.25])


def test_L_sup_of_a_callable_needs_its_sup():
    bounded = lambda x: 0.5
    bounded.sup = 0.5
    assert SurfaceDensity.from_callable(lambda x, P: P, L=bounded).L_sup == 0.5
    with pytest.raises(ValueError, match=r"\.sup"):
        SurfaceDensity.from_callable(lambda x, P: P, L=lambda x: 0.5).L_sup


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


def test_x_dependent_expression_needs_declared_bounds():
    # sampled at x = (0, 0) only, the estimate read c = L = 0, and the bound
    # then failed by 0.2 at x = (1, 0)
    for kw, key in (({}, "density_c"), ({"c": 0.2}, "density_L"), ({"L": 1.0}, "density_c")):
        with pytest.raises(SchemaError) as ei:
            expression("abs(p) - 0.2*x1*x1", **kw)
        assert ei.value.location == key
    with pytest.raises(SchemaError):
        expression("p + x2")
    d = expression("abs(p) - 0.2*x1*x1", c=0.2, L=0.0)
    assert verify_lower_bound(d, [((1.0, 0.0), np.linspace(-8, 8, 101))]).holds
    assert expression("0.5*abs(p) - 1").lower_bound_estimated  # x-free: still estimated


# -- the sigma-Yosida transform -----------------------------------------------------


def test_fixed_point_for_sigma_lipschitz_linear():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval_many(linear(-0.5), ctx, X, 3.0) == pytest.approx(-1.5, abs=1e-12)


def test_quadratic_closed_form_value():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval_many(quadratic(), ctx, X, 1.0) == pytest.approx(0.75, abs=1e-12)
    assert yosida_eval_many(quadratic(), ctx, X, 0.3) == pytest.approx(0.09, abs=1e-12)


def test_quadratic_brute_force_matches_piecewise():
    ctx = YosidaContext(sigma=1.0)
    for p in np.linspace(-2, 2, 41):
        expected = p * p if abs(p) <= 0.5 else abs(p) - 0.25
        got = yosida_eval_many(quadratic(), ctx, X, float(p), force_bruteforce=True)
        assert got == pytest.approx(expected, abs=1e-3)


def test_absolute_transform_caps_slope():
    ctx = YosidaContext(sigma=1.0)
    assert yosida_eval_many(absolute(2.0), ctx, X, 1.0) == pytest.approx(1.0, abs=1e-12)
    # grid path needs an explicit radius since sup L = 2 > sigma
    ctx2 = YosidaContext(sigma=1.0, search_radius=6.0, q_grid_step=2e-4)
    got = yosida_eval_many(absolute(2.0), ctx2, X, 1.0, force_bruteforce=True)
    assert got == pytest.approx(oracle_yosida(absolute(2.0), 1.0, X, 1.0), abs=1e-3)


def test_unbounded_below_linear():
    ctx = YosidaContext(sigma=1.0)
    with pytest.raises(UnboundedBelow):
        yosida_eval_many(linear(-2.0), ctx, X, 0.0)


@pytest.mark.parametrize("fn, x, P", [
    (lambda x, P: -2.0 * np.abs(P), X, 0.0),
    (lambda x, P: -2.0 * np.abs(P) + 0.0 * x[..., 0], np.zeros((3, 2)), np.zeros(3))],
    ids=["shared", "per-sample"])
def test_unbounded_below_detected_by_grid_search(fn, x, P):
    # tau(q) = -2|q| declared with a wrong slope bound: the boundary descent
    # test must still catch the -infinity, on the shared q-grid and on the
    # row of each sample
    d = SurfaceDensity.from_callable(fn, c=0.0, L=0.5)
    ctx = YosidaContext(sigma=1.0, search_radius=5.0)
    with pytest.raises(UnboundedBelow, match="at left search boundary"):
        yosida_eval_many(d, ctx, x, P)


def test_yosida_radius_values():
    assert yosida_radius(absolute(0.5), 1.0, X, 0.0) == pytest.approx(2.0)
    assert yosida_radius(linear(0.0), 1.0, X, 1.0) == pytest.approx(3.0)


def test_yosida_radius_of_many_points_is_the_largest():
    d = expression("2*min(abs(p-1), abs(p+1))", c=0.3, L=0.25)
    ps = np.linspace(-3, 3, 41)
    assert yosida_radius(d, 1.0, X, ps) == max(yosida_radius(d, 1.0, X, float(p)) for p in ps)


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
    got = yosida_eval_many(d, ctx, X, p, force_bruteforce=True)
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


def sum_of_ball_sups_T(d, x, ps):
    """Reference T = sum_j M_{j+2} psi_j(|p|): psi_1 is 1 on [0, 1] and falls
    to 0 at 2, psi_j (j >= 2) is the unit hat on [j-1, j+1], and each
    M_j = max(sup_{|q| <= j} tau, 0) is read from its own dense grid on [-j, j]."""
    sups = {}

    def ball_sup(j):
        if j not in sups:
            q = np.linspace(-j, j, int(2 * j * density.BALL_GRID_PER_UNIT) + 1)
            sups[j] = max(float(d.eval_many(x, q).max()), 0.0)
        return sups[j]

    out = []
    for p in ps:
        r = abs(float(p))
        j = math.floor(r)
        weights = [(1, 1.0)] if r <= 1.0 else [(j, 1.0 - (r - j)), (j + 1, r - j)]
        out.append(sum(w * ball_sup(i + 2) for i, w in weights if w > 0))
    return np.array(out)


ENVELOPE_DENSITIES = {
    "linear": lambda: linear(-0.5), "linear1": lambda: linear(1.0),
    "absolute": lambda: absolute(0.5), "quadratic": quadratic,
    "two-well": lambda: expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0),
    "table": lambda: expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0),
    "x1": lambda: expression("abs(p) - 0.2*x1*x1", c=0.2, L=1.0),
    "step": step_density,
    "tabulated": lambda: tabulated([-2.0, -0.5, 0.0, 1.0, 3.0], [1.0, -0.3, 0.7, 2.0, -1.0]),
}


@pytest.mark.parametrize("name", ENVELOPE_DENSITIES)
def test_envelope_is_the_sum_of_ball_sups(name):
    d = ENVELOPE_DENSITIES[name]()
    x = (0.3, 0.7)
    ps = np.linspace(-7.3, 7.3, 1461)
    got = upper_envelope_T(d, x, ps)
    ref = sum_of_ball_sups_T(d, x, ps)
    if name == "step":
        assert np.array_equal(got, ref)
    assert np.all(np.abs(got - ref) <= 4.4e-16 * np.maximum(1.0, np.abs(ref)))


def test_envelope_is_vectorized():
    d = expression(TWO_WELL, c=0.0, L=0.0)
    ps = np.array([-4.2, -1.0, -0.3, 0.0, 0.5, 1.5, 2.0, 3.75])
    scalar = [upper_envelope_T(d, X, p) for p in ps]
    assert all(type(t) is float for t in scalar)
    assert np.array_equal(upper_envelope_T(d, X, ps), scalar)


def test_ladder_fixed_point_for_smooth_small_density():
    # tau continuous, <= T, and 1-Lipschitz: the sup is attained at q = p
    d = SurfaceDensity.from_callable(lambda x, P: -np.abs(np.asarray(P, float)),
                                     c=0.0, L=1.0)
    for p in (-1.0, 0.2, 2.0):
        assert lip_upper_approx_many(d, 2, X, [p])[0] == pytest.approx(-abs(p), abs=1e-6)


def test_ladder_step_density_values():
    d = step_density()
    assert lip_upper_approx_many(d, 2, X, [0.25])[0] == pytest.approx(-0.5, abs=1e-3)
    # monotone limit toward tau at a continuity point
    vals = [lip_upper_approx_many(d, k, X, [0.25])[0] for k in (1, 2, 4, 8, 16, 32, 64)]
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


@pytest.mark.parametrize("build, match", [
    (lambda: YosidaContext(0.0), "sigma must be positive"),
    (lambda: YosidaContext(1.0, search_radius=0.0), "search_radius must be positive"),
    (lambda: YosidaContext(1.0, q_grid_step=-1e-3), "q_grid_step must be positive"),
    (lambda: tabulated([0.0], [1.0]), ">= 2 samples"),
    (lambda: tabulated([0.0, 1.0], [1.0, 2.0, 3.0]), ">= 2 samples"),
    (lambda: tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0]), "strictly increasing"),
    (lambda: tabulated([0.0, 1.0], [1.0, 2.0], interp="cubic"), "interp must be"),
    (lambda: lip_upper_approx_many(step_density(), 0, X, np.zeros(3)), "k must be >= 1"),
])
def test_context_table_and_ladder_refuse_bad_values(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_spec_text_roundtrip():
    for d in (linear(-0.8), absolute(2.0), quadratic()):
        from bvcontact.cli import parse_density_spec
        back = parse_density_spec(d.spec_text())
        ps = np.linspace(-3, 3, 11)
        assert np.array_equal(back.eval_many(X, ps), d.eval_many(X, ps))


def test_depends_on_x_reads_the_expression_tree():
    assert expression("abs(p) - 0.2*x1*x1", c=0.2, L=0.0).depends_on_x
    assert expression("abs(p) + x2", c=1.0, L=0.0).depends_on_x
    assert not expression("p*p + 0.5*abs(p-0.25)", c=0.0, L=0.0).depends_on_x
    assert step_density().depends_on_x
    assert not quadratic().depends_on_x
    assert not tabulated([0.0, 1.0], [0.0, 1.0]).depends_on_x


# -- the cone-envelope kernel and the sites built on it -------------------------------

TWO_WELL = "2*min(abs(p-1), abs(p+1))"
TABLE = "p*p + 0.5*abs(p-0.25)"
X1_WELL = "abs(p) - 0.2*x1*x1"
# |p| on [-4, 4] spelled through p*p: not piecewise linear, so a grid search
V_NOT_PL = "max(abs(p), p*p/4)"


def dense_cone_min(f, q, s, p):
    """Reference: min_j f_j + s|p_i - q_j| from a dense matrix, 256 rows at a time."""
    p = np.asarray(p, dtype=float)
    out = np.empty(len(p))
    for i in range(0, len(p), 256):
        out[i:i + 256] = (f[None, :] + s * np.abs(p[i:i + 256, None] - q[None, :])).min(axis=1)
    return out


@st.composite
def cone_cases(draw):
    n = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    q = draw(st.floats(-20, 20)) + np.cumsum(gaps)
    f = np.array(draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)))
    f[draw(st.lists(st.integers(0, n - 1), max_size=2))] = density.NEG_SENTINEL
    return q, f, 10.0 ** draw(st.floats(-2, 2)), draw(st.sampled_from((1.0, -1.0)))


@given(case=cone_cases())
@settings(max_examples=150, deadline=None)
def test_cone_envelope_matches_dense_reference(case):
    # sign 1: min_j f_j + s|q_i - q_j|; sign -1: max_j f_j - s|q_i - q_j|, the
    # ladder's sup form, computed as minus the envelope of -f
    q, f, s, sign = case
    env, arg = density._cone_envelope(sign * f, q, s)
    env = sign * env
    ref = sign * dense_cone_min(sign * f, q, s, q)
    finite = f[f != density.NEG_SENTINEL]
    tol = 1e-12 * max(1.0, np.abs(finite).max(initial=0.0), s * np.abs(q).max())
    assert np.abs(env - ref).max() <= tol
    attained = f[arg] + sign * s * np.abs(q - q[arg])
    assert np.abs(attained - ref).max() <= tol


@pytest.fixture
def envelope_nodes(monkeypatch):
    """The node set q of every cone-envelope call, in call order."""
    seen = []
    real = density._cone_envelope

    def spy(f, q, s):
        seen.append(q.copy())
        return real(f, q, s)

    monkeypatch.setattr(density, "_cone_envelope", spy)
    return seen


@pytest.fixture
def search_rows(monkeypatch):
    """The node rows (2-D P) of every density evaluation, in call order."""
    seen = []
    real = SurfaceDensity.eval_many

    def spy(self, x, P):
        if np.ndim(P) == 2:
            seen.append(np.array(P))
        return real(self, x, P)

    monkeypatch.setattr(SurfaceDensity, "eval_many", spy)
    return seen


@pytest.mark.parametrize("k", [1, 4, 16, 64])
def test_ladder_matches_dense_reference(k, envelope_nodes):
    # the criterion-10 grid; the sup runs over the q-grid the ladder built
    d = step_density()
    P = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 4801), [1.0 / k]]))
    got = lip_upper_approx_many(d, k, X, P)
    (q,) = envelope_nodes
    assert np.isin(P, q).all()
    t_q = d.eval_many(X, q) - density.upper_envelope_T(d, X, q)
    ref = density.upper_envelope_T(d, X, P) - dense_cone_min(-t_q, q, k, P)
    assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("text, P", [
    (TWO_WELL, np.linspace(-3.0, 3.0, 4001)),
    (TABLE, np.arange(4001) * (12.0 / 4000) - 6.0),   # the prox table's nodes
])
def test_brute_force_transform_matches_dense_reference(text, P, envelope_nodes):
    d = expression(text, c=0.0, L=0.0)
    got = yosida_eval_many(d, YosidaContext(sigma=1.0), X, P, force_bruteforce=True)
    (q,) = envelope_nodes
    assert np.isin(P, q).all()
    assert np.abs(got - dense_cone_min(d.eval_many(X, q), q, 1.0, P)).max() <= 1e-12


@pytest.mark.parametrize("text", [TWO_WELL, TABLE, X1_WELL])
def test_optimal_boundary_values_attain_dense_minimum(text, envelope_nodes, search_rows):
    u = field_from_function(unit_square().grid(1 / 64),
                            lambda X1, X2: 3 * X1 - 1.5 + 0.4 * np.sin(9 * X2))
    d = expression(text, c=0.2, L=0.0)      # the x1 density's bound; valid for all three
    p = optimal_boundary_values(u, d, YosidaContext(sigma=1.0), eps=1e-3)
    tr = trace_extract(u)
    t = tr.values
    achieved = d.eval_many(tr.x, p.values) + np.abs(t - p.values)
    if d.depends_on_x:
        # one row of nodes per sample, holding its value; the dense row
        # minimum is taken at that sample's point alone
        rows = np.vstack(search_rows)
        assert not envelope_nodes and len(rows) == len(t) and (rows == t[:, None]).any(axis=1).all()
        ref = [(d.eval_many(tuple(xi), q) + np.abs(ti - q)).min()
               for xi, ti, q in zip(tr.x, t, rows)]
    else:
        (q,) = envelope_nodes
        ref = dense_cone_min(d.eval_many(None, q), q, 1.0, t)
    assert np.abs(achieved - ref).max() <= 1e-12


@pytest.mark.parametrize("text, search", [
    pytest.param(text, search, id=text) for text, search in (
        ("abs(p) - 0.25", "kinks"), ("abs(p) - 0.25 + 0*x1", "kinks"),
        (V_NOT_PL + " - 0.25", "grid"), (V_NOT_PL + " - 0.25 + 0*x1", "grid"))])
def test_optimal_boundary_values_take_the_minimizer_nearest_the_trace(text, search):
    # at sigma = 1 every q between 0 and Tr u attains the transform; the
    # shared q-grid used to take the node farthest from Tr u (|q| <= 0.0013)
    u = field_from_function(unit_square().grid(1 / 64), lambda X1, X2: X1)
    d = expression(text, c=0.25, L=0.0)
    tr = trace_extract(u)
    assert density._brute_force_yosida(d, YosidaContext(1.0), tr.x, tr.values)[2] == search
    q = optimal_boundary_values(u, d, YosidaContext(sigma=1.0), eps=1e-2)
    assert np.array_equal(q.values, tr.values)


def test_transforms_run_in_linear_memory():
    # a P x q matrix over the criterion-10 ladder grid takes over 1 GiB, and
    # over a 4001-point transform tens of MiB
    P = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 4801), [1.0]]))
    ps = np.linspace(-3, 3, 4001)
    transform_peaks = []
    tracemalloc.start()
    try:
        lip_upper_approx_many(step_density(), 1, X, P)
        ladder_peak = tracemalloc.get_traced_memory()[1]
        for text in (TWO_WELL, TABLE):          # the kink search and the q-grid
            tracemalloc.reset_peak()
            yosida_eval_many(expression(text, c=0.0, L=0.0), YosidaContext(sigma=1.0), X,
                             ps, force_bruteforce=True)
            transform_peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert ladder_peak < 32 * 2 ** 20
    assert max(transform_peaks) < 8 * 2 ** 20


def test_per_sample_search_runs_in_chunks():
    # 512 samples of the square at h = 1/128; on the grid each is searched on
    # its own row of ~11 400 nodes: the whole sample x node matrix would take
    # ~45 MiB.  The kink search reads a few candidates a sample
    tr = trace_extract(field_from_function(unit_square().grid(1 / 128),
                                           lambda X1, X2: 3 * X1 - 1.5))
    ctx = YosidaContext(sigma=1.0, q_grid_step=1e-3)
    for text, search in ((X1_WELL, "kinks"), (V_NOT_PL + " - 0.2*x1*x1", "grid")):
        d = expression(text, c=0.2, L=0.0)
        tracemalloc.start()
        try:
            hat, q, searched = density._brute_force_yosida(d, ctx, tr.x, tr.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert searched == search and peak < 8 * 2 ** 20
        # tau_hat(x, p) = |p| - 0.2 x1^2, attained at every q between 0 and p;
        # the tie goes to the candidate nearest p, p itself
        assert np.abs(hat - (np.abs(tr.values) - 0.2 * tr.x[:, 0] ** 2)).max() <= 1e-12
        assert np.array_equal(q, tr.values)


# -- the exact kink search for densities piecewise linear in p ------------------------


def _pl_expressions(depth):
    """(text, slope bound in p for x1 in [0, 1]) of expressions piecewise
    linear in p, built from p, x1 and constants by abs, min, max, +, -,
    scalar * and unary minus."""
    const = st.floats(-2, 2).map(lambda c: round(c, 3))
    leaf = st.one_of(st.sampled_from([("p", 1.0), ("x1", 0.0), ("x1*p", 1.0)]),
                     const.map(lambda c: (repr(c), 0.0)),
                     const.map(lambda c: (f"(p - {c!r})", 1.0)))
    if depth == 0:
        return leaf
    sub = _pl_expressions(depth - 1)
    pair = st.tuples(sub, sub)
    return st.one_of(
        leaf,
        sub.map(lambda a: (f"abs({a[0]})", a[1])),
        sub.map(lambda a: (f"-({a[0]})", a[1])),
        st.tuples(const, sub).map(lambda ca: (f"{ca[0]!r}*({ca[1][0]})", abs(ca[0]) * ca[1][1])),
        *(pair.map(lambda ab, f=f: (f"{f}({ab[0][0]}, {ab[1][0]})", max(ab[0][1], ab[1][1])))
          for f in ("min", "max")),
        *(pair.map(lambda ab, o=o: (f"{ab[0][0]} {o} {ab[1][0]}", ab[0][1] + ab[1][1]))
          for o in ("+", "-")))


@given(case=_pl_expressions(3), sigma=st.floats(0.1, 2.0),
       ps=st.lists(st.floats(-3, 3), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
@example(case=("abs(abs(min(p, (p - 0.094))))", 1.0), sigma=1.0, ps=[0.0, 0.0, 0.0, 1.0])
def test_kink_search_is_exact_on_drawn_pl_expressions(case, sigma, ps):
    # tau = e + S|p| for a drawn e of slope bound S is bounded below by
    # tau(x, 0) at every sigma, and its slopes up to 2S exceed sigma where
    # the transform must read the kinks.  The kink search is a minimum over
    # a superset of the minimizers: it lies below every grid minimum and
    # within one grid step of it
    e, slope = case
    text, slope = f"{e} + {slope!r}*abs(p)", 2 * slope
    xs = np.column_stack([np.linspace(0.0, 1.0, 4), np.zeros(4)])
    ps = np.array(ps)
    tau0 = expression(text, c=0.0, L=0.0).eval_many(xs, np.zeros(4))
    d = expression(text, c=max(0.0, float(-tau0.min())), L=0.0)
    hat, q, search = density._brute_force_yosida(d, YosidaContext(sigma), xs, ps)
    assert search == "kinks"
    assert np.abs(d.eval_many(xs, q) + sigma * np.abs(ps - q) - hat).max() <= 1e-12
    on_grid = SurfaceDensity.from_callable(d.eval_many, c=d.c, L=d.L)
    step = density.yosida_radius(d, sigma, xs, ps) / 20000
    grid_hat, _, _ = density._brute_force_yosida(on_grid, YosidaContext(sigma, q_grid_step=step),
                                                 xs, ps)
    assert np.all(hat <= grid_hat + 1e-12)
    assert np.all(grid_hat - hat <= (slope + sigma) * step + 1e-12)


def test_kinks_skip_pieces_constant_up_to_rounding():
    # p - (p - 0.094) reads 0.094 and 0.09399999999999997 at 0 and 1: the
    # line through them crossed zero near 3.4e15, and the abs around it,
    # evaluated there, lost its zero at 0.094
    assert exprgrammar.kinks(exprgrammar.parse_expression("min(p, (p - 0.094))")).size == 0
    k = exprgrammar.kinks(exprgrammar.parse_expression("abs(abs(min(p, (p - 0.094))))"))
    assert np.allclose(k[np.isfinite(k)], 0.094, rtol=0, atol=1e-15)
    d = expression("abs(abs(min(p, (p - 0.094)))) + 1.0*abs(p)", c=0.0, L=0.0)
    hat, q, search = density._brute_force_yosida(d, YosidaContext(1.0), X, np.array([1.0]))
    assert search == "kinks"
    assert hat[0] == pytest.approx(1.0, abs=1e-15) and q[0] == pytest.approx(0.094, abs=1e-15)


def test_two_well_transform_is_exact():
    # the q-grid read 1.0e-3 above min(|p - 1|, |p + 1|) on [-3, 3]
    ps = np.linspace(-3.0, 3.0, 4001)
    d = expression(TWO_WELL, c=0.0, L=0.0)
    got = yosida_eval_many(d, YosidaContext(sigma=1.0), X, ps, force_bruteforce=True)
    assert np.abs(got - np.minimum(np.abs(ps - 1), np.abs(ps + 1))).max() <= 1e-12


@pytest.mark.parametrize("text, x, P", [
    ("-2*abs(p)", X, 0.0), ("-2*abs(p) + x1", np.zeros((3, 2)), np.zeros(3))],
    ids=["shared", "per-sample"])
def test_unbounded_below_detected_by_kink_search(text, x, P):
    # the kink-search twin of test_unbounded_below_detected_by_grid_search
    d = expression(text, c=0, L=0.5)
    with pytest.raises(UnboundedBelow, match="outermost kink"):
        yosida_eval_many(d, YosidaContext(sigma=1.0), x, P)


@pytest.mark.parametrize("text", ["p*p", "sqrt(p)", "p^2", "1/p", "p*abs(p)", TABLE])
def test_kinks_refuse_expressions_not_piecewise_linear(text):
    assert exprgrammar.kinks(exprgrammar.parse_expression(text)) is None


@pytest.mark.parametrize("text, kinks", [
    ("abs(p-1)", [1.0]), (TWO_WELL, [-1.0, 0.0, 1.0]), ("max(p, 2*p - 1)", [1.0]),
    ("3 - p/2 + x1^2", []), ("abs(abs(p) - 1)", [-1.0, 0.0, 1.0])])
def test_kinks_of_piecewise_linear_expressions(text, kinks):
    k = exprgrammar.kinks(exprgrammar.parse_expression(text), 0.5, 0.0)
    assert np.array_equal(np.unique(k[np.isfinite(k)]), kinks)


@pytest.mark.parametrize("d, force, search", [
    (quadratic(), False, "closed_form"), (quadratic(), True, "grid"),
    (absolute(0.5), True, "kinks"), (tabulated([0.0, 1.0], [0.0, 1.0]), False, "kinks"),
    (tabulated([0.0, 1.0], [0.0, 1.0], "pc-left"), False, "grid"),
    (step_density(), False, "grid")])
def test_transform_returns_the_search_that_ran(d, force, search):
    ps = np.linspace(-1.0, 1.0, 5)
    hat, searched = yosida_eval_many(d, YosidaContext(sigma=1.0), X, ps,
                                     force_bruteforce=force, return_search=True)
    assert searched == search
    assert np.array_equal(hat, yosida_eval_many(d, YosidaContext(sigma=1.0), X, ps,
                                                force_bruteforce=force))


def _nested(outer, inner, depth):
    for i in range(depth):
        inner = outer(inner, i)
    return inner


# a 30-well chain spelled with two-argument min, abs nested 40 deep, and a
# nest whose kinks double at every level (2^21 - 1 of them): kept with every
# repeat, each set of kinks once grew past a GiB.  Without repeats the first
# two hold 61 kinks and one; the third outgrows ROW_CHUNK and takes the grid
CHAINED_WELLS = _nested(lambda e, i: f"min({e}, abs(p - {i + 1}))", "abs(p)", 30)
DEEP_ABS = _nested(lambda e, i: f"abs({e})", "p", 40)
DOUBLING = _nested(lambda e, i: f"abs({e} - {2.0 ** -i!r})", "abs(p)", 20)


@pytest.mark.parametrize("text, search", [
    (CHAINED_WELLS, "kinks"), (DEEP_ABS, "kinks"), (DOUBLING, "grid")],
    ids=["chained-wells", "deep-abs", "doubling"])
def test_kink_search_runs_in_bounded_memory(text, search):
    tr = trace_extract(field_from_function(unit_square().grid(1 / 16),
                                           lambda X1, X2: 3 * X1 - 1.5))
    ctx = YosidaContext(sigma=1.0)
    for suffix, x in (("", X), (" + 0*x1", tr.x)):
        d = expression(text + suffix, c=0.0, L=0.0)
        tracemalloc.start()
        try:
            hat, q, searched = density._brute_force_yosida(d, ctx, x, tr.values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert searched == search and peak < 8 * 2 ** 20
        assert np.abs(d.eval_many(x, q) + np.abs(tr.values - q) - hat).max() <= 1e-12
