import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvcontact import density
from bvcontact.density import YosidaContext, yosida_eval_many
from bvcontact.errors import MaskMismatch, SchemaError
from bvcontact.geometry import LineDomain, builtin_domain, l_shape, regular_ngon, unit_square
from bvcontact.grid import (GridField, LineGrid, _grad, _grad_adjoint,
                            boundary_trace_from_function, constant_field,
                            energy_capillarity, energy_F, energy_H, field_from_function,
                            l1_distance, load_field, save_field,
                            trace_extract, tv_exact_pc, tv_grid)
from bvcontact.relaxation import Log1DFamily

SQ = unit_square()
DISK = regular_ngon(256)


def test_tv_constant_is_zero():
    u = constant_field(SQ.grid(1 / 64), 7.0)
    assert tv_grid(u) == 0.0


@pytest.mark.parametrize("dom", [SQ, l_shape()], ids=["square", "lshape"])
# fields are scalar; M = 1 keeps the ids of the rows that remain
@pytest.mark.parametrize("M", [1])
def test_grad_pair_matches_the_zero_filled_reference_bit_for_bit(dom, M):
    # the reference fills zeros first and writes the differences over them;
    # the inputs hold +0.0 and -0.0 too, so the sign of every zero is compared
    g = dom.grid(1 / 40)
    h, ok = g.h, g.neighbor_masks()
    rng = np.random.default_rng(5)
    shape = g.mask.shape
    u = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    u[rng.random(shape) < 0.2] = -0.0
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = (u[:, 1:] - u[:, :-1]) * (1.0 / h)
    dy[:-1, :] = (u[1:, :] - u[:-1, :]) * (1.0 / h)
    dx[~ok[0]] = 0.0
    dy[~ok[1]] = 0.0
    gx, gy = _grad(u, h, ok)
    assert gx.tobytes() == dx.tobytes() and gy.tobytes() == dy.tobytes()
    xx, yy = u, np.where(rng.random(u.shape) < 0.5, -0.0, u[::-1])
    out = np.zeros_like(xx)
    vx = np.where(ok[0], xx, 0.0)
    vy = np.where(ok[1], yy, 0.0)
    out -= vx
    out[:, 1:] += vx[:, :-1]
    out -= vy
    out[1:, :] += vy[:-1, :]
    assert _grad_adjoint(np.stack([xx, yy]), h, ok).tobytes() == (out * (1.0 / h)).tobytes()


@pytest.mark.parametrize("name", ["square", "lshape", "disk64", "line"])
def test_grad_adjoint_is_the_transpose_of_grad(name):
    # xi is nonzero where ok is False, which the adjoint must ignore as
    # _grad's zeros do; on the 1 x K line the y shift is empty
    g = (LineGrid(LineDomain(0, 1), 1 / 37) if name == "line"
         else builtin_domain(name).grid(1 / 40))
    ok = g.neighbor_masks()
    rng = np.random.default_rng(7)
    u, xx, yy = rng.normal(size=(3,) + g.mask.shape)
    gx, gy = _grad(u, g.h, ok)
    lhs = float((gx * xx).sum() + (gy * yy).sum())
    rhs = float((u * _grad_adjoint(np.stack([xx, yy]), g.h, ok)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("name", ["lshape", "disk64"])
# fields are scalar; M = 1 keeps the ids of the rows that remain
@pytest.mark.parametrize("M", [1])
def test_grad_ignores_nonfinite_values_off_the_mask(name, M):
    # the flat x shift pairs each row's last cell with the next row's first,
    # and both can lie off the mask: inf - inf there must neither warn nor
    # reach a masked cell
    g = builtin_domain(name).grid(1 / 40)
    ok = g.neighbor_masks()
    rng = np.random.default_rng(11)
    u = rng.normal(size=g.mask.shape)
    u[~g.mask] = 0.0
    bad = u.copy()
    bad[~g.mask] = rng.choice([np.nan, np.inf, -np.inf], size=bad[~g.mask].shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _grad(bad, g.h, ok)
        tv = tv_grid(GridField(g, bad))
    for a, b in zip(got, _grad(u, g.h, ok)):
        assert a[g.mask].tobytes() == b[g.mask].tobytes()
    assert tv == tv_grid(GridField(g, u))


# fields are scalar; M = 1 keeps the ids of the rows that remain
@pytest.mark.parametrize("M", [1])
def test_grad_pair_reads_any_layout_as_its_c_copy(M):
    g = l_shape().grid(1 / 40)
    ok = g.neighbor_masks()
    rng = np.random.default_rng(13)
    shape = g.mask.shape
    fortran = np.asfortranarray(rng.normal(size=shape))
    transposed = rng.normal(size=shape[::-1]).T
    for u in (fortran, transposed):
        c = np.ascontiguousarray(u)
        for a, b in zip(_grad(u, g.h, ok), _grad(c, g.h, ok)):
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes()
    for xi in (np.asfortranarray(rng.normal(size=(2,) + shape)),
               rng.normal(size=shape[::-1] + (2,)).T):
        got = _grad_adjoint(xi, g.h, ok)
        assert got.tobytes() == _grad_adjoint(np.ascontiguousarray(xi), g.h, ok).tobytes()


def test_tv_halfplane_indicator():
    g = SQ.grid(1 / 256)
    u = field_from_function(g, lambda X, Y: (X < 0.5).astype(float))
    assert tv_grid(u) == pytest.approx(1.0, rel=0.02)


def test_tv_cone_on_disk():
    g = DISK.grid(1 / 256)
    u = field_from_function(g, lambda X, Y: np.hypot(X, Y))
    assert tv_grid(u) == pytest.approx(math.pi, rel=0.02)


def test_tv_exact_pc_values():
    seg = ((0.0, 1 / 16), (1 / 16, 0.0), 16.0)
    assert tv_exact_pc([seg]) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert tv_exact_pc([]) == 0.0
    two = [((0.0, 0.2), (1.0, 0.2), 1.0), ((0.0, 0.7), (1.0, 0.7), 2.0)]
    assert tv_exact_pc(two) == pytest.approx(3.0)


@given(c=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_tv_homogeneity(c):
    g = SQ.grid(1 / 32)
    rng = np.random.default_rng(3)
    base = rng.standard_normal(g.mask.shape)
    u = GridField(g, base)
    cu = GridField(g, c * base)
    assert tv_grid(cu) == pytest.approx(abs(c) * tv_grid(u), rel=1e-9, abs=1e-9)


def test_tv_subadditive():
    g = SQ.grid(1 / 32)
    rng = np.random.default_rng(4)
    a = GridField(g, rng.standard_normal(g.mask.shape))
    b = GridField(g, rng.standard_normal(g.mask.shape))
    s = GridField(g, a.values + b.values)
    assert tv_grid(s) <= tv_grid(a) + tv_grid(b) + 1e-9


def test_tv_lower_semicontinuity_surrogate():
    # mollified indicators have TV >= TV of their limit (up to grid slack)
    g = SQ.grid(1 / 128)
    X, Y = g.cell_centers()
    u = field_from_function(g, lambda X, Y: (X < 0.5).astype(float))
    tvs = []
    for w in (0.2, 0.1, 0.05, 0.02):
        uh = field_from_function(g, lambda X, Y: np.clip((0.5 + w / 2 - X) / w, 0, 1))
        tvs.append(tv_grid(uh))
    assert min(tvs) >= tv_grid(u) - 0.02


def test_trace_constant_exact():
    u = constant_field(SQ.grid(1 / 64), 3.5)
    tr = trace_extract(u)
    assert np.all(tr.values == 3.5)
    assert tr.w.sum() == pytest.approx(4.0, rel=1e-9)


def test_trace_x1_on_square():
    g = SQ.grid(1 / 256)
    u = field_from_function(g, lambda X, Y: X)
    tr = trace_extract(u)
    # int_bd |x1| = 0 (left) + 1 (right) + 2 * 1/2 (top+bottom) = 2
    assert tr.abs_integral() == pytest.approx(2.0, rel=0.03)


def test_trace_cone_on_disk():
    g = DISK.grid(1 / 256)
    u = field_from_function(g, lambda X, Y: np.hypot(X, Y))
    tr = trace_extract(u)
    assert np.all(np.abs(tr.values - 1.0) < 0.05)
    assert tr.abs_integral() == pytest.approx(2 * math.pi, rel=0.03)


def test_energy_F_zero_field():
    g = SQ.grid(1 / 64)
    rep = energy_F(constant_field(g, 0.0), density.linear(-0.8), sigma=1.0)
    assert rep.total == pytest.approx(0.0, abs=1e-12)


def test_energy_F_additive_decomposition():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: X * Y)
    rep = energy_F(u, density.linear(-0.5), sigma=2.0)
    assert rep.total == rep.tv_term + rep.contact_term + rep.bulk_term
    assert rep.tv_term == pytest.approx(2.0 * tv_grid(u))
    assert sum(rep.per_edge.values()) == pytest.approx(rep.contact_term)


def test_energy_H_equals_F_for_lipschitz_density():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: X)
    d = density.linear(-0.5)
    ctx = YosidaContext(sigma=1.0)
    f = energy_F(u, d, 1.0)
    hh = energy_H(u, d, ctx)
    assert hh.total == pytest.approx(f.total, abs=1e-9)


def test_energy_H_absolute_zero_trace():
    g = SQ.grid(1 / 64)
    rep = energy_H(constant_field(g, 0.0), density.absolute(2.0), YosidaContext(1.0))
    assert rep.total == pytest.approx(0.0, abs=1e-12)


def test_energy_H_cone_on_disk():
    g = DISK.grid(1 / 256)
    u = field_from_function(g, lambda X, Y: np.hypot(X, Y))
    rep = energy_H(u, density.absolute(2.0), YosidaContext(1.0))
    # pi (TV) + 2*pi (transformed contact at trace 1 with slope capped at 1)
    assert rep.total == pytest.approx(3 * math.pi, rel=0.03)


def test_energy_H_less_equal_F():
    g = SQ.grid(1 / 64)
    d = density.quadratic()
    ctx = YosidaContext(sigma=1.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = field_from_function(g, lambda X, Y: rng.uniform(-2, 2) * X
                                + rng.uniform(-2, 2) * Y + rng.uniform(-1, 1))
        assert energy_H(u, d, ctx).total <= energy_F(u, d, 1.0).total + 1e-9


@pytest.mark.parametrize("text", ["abs(p) - 0.2*x1*x1", "abs(p) - 0.2*(1-x1)*(1-x1)"])
def test_contact_term_reads_each_sample_at_its_own_point(text):
    # each edge used to be read at its first sample point: -0.396899 for both
    # densities, where the sample sum is about -1/3
    u = constant_field(SQ.grid(1 / 64), 0.0)
    d = density.expression(text, c=0.2, L=0.0)
    tr = trace_extract(u)
    want = sum(wi * d.eval_many(tuple(xi), np.zeros(1))[0] for wi, xi in zip(tr.w, tr.x))
    assert want == pytest.approx(-1 / 3, abs=1e-4)
    assert energy_F(u, d, sigma=1.0).contact_term == pytest.approx(want, abs=1e-12)


def test_energy_H_reads_each_sample_at_its_own_point():
    # L = 0 keeps sigma = 1 off the margin; tau_hat(x, p) = |p| - 0.2 x1^2
    u = field_from_function(SQ.grid(1 / 64), lambda X, Y: X - 0.3 + 0.5 * Y)
    d = density.expression("abs(p) - 0.2*x1*x1", c=0.2, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    tr = trace_extract(u)
    hat = [yosida_eval_many(d, ctx, tuple(xi), np.array([ti]))[0]
           for xi, ti in zip(tr.x, tr.values)]
    got = energy_H(u, d, ctx).contact_term
    assert got == pytest.approx(float(np.dot(tr.w, hat)), abs=1e-12)
    closed = np.abs(tr.values) - 0.2 * tr.x[:, 0] ** 2
    assert got == pytest.approx(float(np.dot(tr.w, closed)), abs=1e-12)


def test_capillarity_flat_field():
    g = SQ.grid(1 / 64)
    rep = energy_capillarity(constant_field(g, 0.0), nu=0.5)
    assert rep.total == pytest.approx(1.0, abs=1e-12)


def test_capillarity_constant_closed_form():
    g = SQ.grid(1 / 64)
    for c in (-1.0, 0.5):
        rep = energy_capillarity(constant_field(g, c), nu=0.3)
        assert rep.total == pytest.approx(1 + c * c + 4 * 0.3 * c, rel=1e-9)


def test_capillarity_linear_ramp():
    g = SQ.grid(1 / 256)
    rep = energy_capillarity(field_from_function(g, lambda X, Y: X), nu=0.0)
    assert rep.total == pytest.approx(math.sqrt(2) + 1 / 3, rel=0.02)


def test_l1_distance_metric():
    g = SQ.grid(1 / 64)
    u = constant_field(g, 1.0)
    v = constant_field(g, 0.0)
    assert l1_distance(u, u) == 0.0
    assert l1_distance(u, v) == pytest.approx(1.0, rel=1e-9)


def test_l1_distance_rejects_mismatch():
    u = constant_field(SQ.grid(1 / 32), 1.0)
    v = constant_field(SQ.grid(1 / 16), 1.0)
    with pytest.raises(MaskMismatch):
        l1_distance(u, v)


def test_1d_log_field_energy():
    g = LineGrid(LineDomain(0, 1), 1e-4)
    n = 10
    u = field_from_function(g, lambda X, Y: np.log(np.maximum(X, 1.0 / n)))
    tr = trace_extract(u)
    assert tr.values[0] == pytest.approx(math.log(1 / n), abs=1e-6)
    rep = energy_F(u, density.linear(1.0), sigma=1.0)
    assert abs(rep.total) < 1e-2


@pytest.mark.parametrize("h, cells", [(0.3, 3), (1.0, 2), (0.4, 2), (1 / 64, 64)])
def test_interval_lattice_tiles_the_interval(h, cells):
    # cells of width h ran past the end: at h = 0.3 the last center was 0.75,
    # at h = 1 it was 1.5, outside the interval
    g = LineGrid(LineDomain(0.0, 1.0), h)
    assert g.xs.shape == (cells,) and g.h == 1.0 / cells
    assert g.xs[0] - g.h / 2 == 0.0 and g.xs[-1] + g.h / 2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_interval_lattice_matches_1d_formulas(n):
    # the interval as a 1 x K lattice gives, bit for bit, the direct 1-D
    # forward differences and the endpoint trace with unit weights
    fam = Log1DFamily()
    u = fam.member(n, 1e-4).realization
    h = 1.0 / 10_000
    v = np.log(np.maximum((np.arange(10_000) + 0.5) * h, 1.0 / n))
    assert u.values.shape == (1, 10_000) and np.array_equal(u.values[0], v)
    d = np.zeros_like(v)
    d[:-1] = (v[1:] - v[:-1]) / h
    tv = float(h * np.abs(d).sum())
    assert tv_grid(u) == tv
    tr = trace_extract(u)
    assert np.array_equal(tr.values, [v[0], v[-1]]) and np.array_equal(tr.w, [1.0, 1.0])
    assert np.array_equal(tr.s, [0.0, 1.0]) and np.array_equal(tr.edge_id, [0, 1])
    rep = energy_F(u, fam.density, 1.0)
    assert (rep.tv_term, rep.contact_term) == (tv, float(v[0]) + float(v[-1]))
    assert rep.per_edge == {0: float(v[0]), 1: float(v[-1])}


def test_field_refuses_a_wrong_shape_and_non_finite_values():
    g = l_shape().grid(1 / 16)
    with pytest.raises(MaskMismatch, match="does not match mask"):
        GridField(g, np.zeros((3, 3)))
    with pytest.raises(MaskMismatch, match="does not match mask"):
        GridField(g, np.zeros(g.mask.shape + (2,)))     # fields are scalar
    values = np.zeros(g.mask.shape)
    values[~g.mask] = np.nan          # cells outside the mask are not read
    GridField(g, values)
    iy, ix = np.argwhere(g.mask)[0]
    values[iy, ix] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        GridField(g, values)


def test_field_io_roundtrip(tmp_path):
    g = l_shape().grid(1 / 32)
    u = field_from_function(g, lambda X, Y: np.sin(3 * X) + Y)
    save_field(u, tmp_path / "field")
    v = load_field(tmp_path / "field", grid=g)
    assert np.array_equal(u.values, v.values)
    assert l1_distance(u, v) == 0.0


@pytest.mark.parametrize("grid, match", [
    (l_shape().grid(1 / 16), "does not match stored"),
    (SQ.grid(1 / 32), "stored mask"),
], ids=["grid1-does not match stored", "grid2-stored mask"])
def test_field_io_refuses_another_grid(tmp_path, grid, match):
    save_field(constant_field(l_shape().grid(1 / 32), 1.0), tmp_path / "field")
    with pytest.raises(SchemaError, match=match):
        load_field(tmp_path / "field", grid=grid)


def test_boundary_trace_from_function():
    g = SQ.grid(1 / 128)
    tr = boundary_trace_from_function(g, lambda x, y: x)
    assert tr.abs_integral() == pytest.approx(2.0, rel=0.02)


def test_sentinel_values_flagged_in_report():
    from bvcontact.density import NEG_SENTINEL, SurfaceDensity

    def fn(x, P):
        P = np.asarray(P, dtype=float)
        return np.where(P > 0, NEG_SENTINEL, 0.0)

    d = SurfaceDensity.from_callable(fn, c=0.0, L=0.0)
    g = SQ.grid(1 / 32)
    rep = energy_F(constant_field(g, 1.0), d, sigma=1.0)
    assert rep.notes.get("sentinel_clamped") is True
    rep0 = energy_F(constant_field(g, -1.0), d, sigma=1.0)
    assert "sentinel_clamped" not in rep0.notes
