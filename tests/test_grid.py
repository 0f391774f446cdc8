import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bvcontact import density
from bvcontact.density import YosidaContext
from bvcontact.errors import MaskMismatch
from bvcontact.geometry import l_shape, regular_ngon, unit_square
from bvcontact.grid import (GridField, _grad, _grad_adjoint, _grad_at,
                            boundary_trace_from_function, constant_field,
                            energy_capillarity, energy_F, energy_H, field_from_function,
                            l1_distance, line_grid, load_field, save_field,
                            trace_extract, tv_exact_pc, tv_grid)

SQ = unit_square()
DISK = regular_ngon(256)


def test_tv_constant_is_zero():
    u = constant_field(SQ.grid(1 / 64), 7.0)
    assert tv_grid(u) == 0.0


@pytest.mark.parametrize("dom", [SQ, l_shape()], ids=["square", "lshape"])
@pytest.mark.parametrize("M", [1, 2])
def test_grad_at_is_grad_bit_for_bit(dom, M):
    # every lattice cell: first/last rows and columns, cells on both sides of
    # the mask edge (the square's mask fills its lattice, the L-shape's does
    # not); values off the mask are nonzero on purpose
    g = dom.grid(1 / 40)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g.mask.shape + ((M,) if M > 1 else ()))
    ok = g.neighbor_masks()
    dx, dy = _grad(u, g.h, *ok)
    flat = (g.mask.size,) + u.shape[2:]
    every = np.arange(g.mask.size)
    for cells in (every, rng.permutation(every)[:300]):
        gx, gy = _grad_at(u, g.h, *ok, cells)
        assert gx.tobytes() == dx.reshape(flat)[cells].tobytes()
        assert gy.tobytes() == dy.reshape(flat)[cells].tobytes()


@pytest.mark.parametrize("dom", [SQ, l_shape()], ids=["square", "lshape"])
@pytest.mark.parametrize("M", [1, 2])
def test_grad_pair_matches_the_zero_filled_reference_bit_for_bit(dom, M):
    # the reference fills zeros first and writes the differences over them;
    # the inputs hold +0.0 and -0.0 too, so the sign of every zero is compared
    g = dom.grid(1 / 40)
    h, (ok_x, ok_y) = g.h, g.neighbor_masks()
    rng = np.random.default_rng(5)
    shape = g.mask.shape + ((M,) if M > 1 else ())
    u = rng.normal(size=shape) * (rng.random(shape) < 0.7)
    u[rng.random(shape) < 0.2] = -0.0
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = (u[:, 1:] - u[:, :-1]) / h
    dy[:-1, :] = (u[1:, :] - u[:-1, :]) / h
    dx[~ok_x] = 0.0
    dy[~ok_y] = 0.0
    gx, gy = _grad(u, h, ok_x, ok_y)
    assert gx.tobytes() == dx.tobytes() and gy.tobytes() == dy.tobytes()
    if M == 1:
        xx, yy = u, np.where(rng.random(u.shape) < 0.5, -0.0, u[::-1])
        out = np.zeros_like(xx)
        vx = np.where(ok_x, xx, 0.0)
        vy = np.where(ok_y, yy, 0.0)
        out -= vx
        out[:, 1:] += vx[:, :-1]
        out -= vy
        out[1:, :] += vy[:-1, :]
        assert _grad_adjoint(xx, yy, h, ok_x, ok_y).tobytes() == (out / h).tobytes()


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
    g = line_grid(0, 1, 10_000)
    n = 10
    u = field_from_function(g, lambda x: np.log(np.maximum(x, 1.0 / n)))
    tr = trace_extract(u)
    assert tr.values[0] == pytest.approx(math.log(1 / n), abs=1e-6)
    rep = energy_F(u, density.linear(1.0), sigma=1.0)
    assert abs(rep.total) < 1e-2


def test_vector_field_tv_frobenius():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: np.stack([X, Y], axis=-1), vector_dim=2)
    # |grad u| = sqrt(1 + 1) on interior cells
    assert tv_grid(u) == pytest.approx(math.sqrt(2), rel=0.05)


def test_field_io_roundtrip(tmp_path):
    g = l_shape().grid(1 / 32)
    u = field_from_function(g, lambda X, Y: np.sin(3 * X) + Y)
    save_field(u, tmp_path / "field")
    v = load_field(tmp_path / "field", grid=g)
    assert np.array_equal(u.values, v.values)
    assert l1_distance(u, v) == 0.0


def test_boundary_trace_from_function():
    g = SQ.grid(1 / 128)
    tr = boundary_trace_from_function(g, lambda x, y: x)
    assert tr.abs_integral() == pytest.approx(2.0, rel=0.02)


def test_sentinel_values_flagged_in_report():
    from bvcontact.density import NEG_SENTINEL, SurfaceDensity

    def fn(x, P):
        P = np.asarray(P, dtype=float)
        return np.where(P > 0, NEG_SENTINEL, 0.0)

    d = SurfaceDensity.from_callable(fn, c=0.0, L=0.0, regularity="normal-integrand")
    g = SQ.grid(1 / 32)
    rep = energy_F(constant_field(g, 1.0), d, sigma=1.0)
    assert rep.notes.get("sentinel_clamped") is True
    rep0 = energy_F(constant_field(g, -1.0), d, sigma=1.0)
    assert "sentinel_clamped" not in rep0.notes
