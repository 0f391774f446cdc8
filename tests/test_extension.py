import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvcontact import cli, corpus, density, geometry
from bvcontact.density import NEG_SENTINEL, YosidaContext, yosida_eval_many
from bvcontact.errors import LayerTooThin, MaskMismatch, UnboundedBelow
from bvcontact.extension import (_layer_width, extend_boundary_data, optimal_boundary_values,
                                 recovery_sequence, required_eps)
from bvcontact.geometry import DomainGrid, builtin_domain, l_shape, unit_square
from bvcontact.grid import (GridField, _grad, boundary_trace_from_function, constant_field,
                            field_from_function, l1_distance, l1_norm, trace_extract,
                            tv_grid)
from bvcontact.relaxation import _legs_trace

SQ = unit_square()


def _const_trace(grid, c):
    return boundary_trace_from_function(grid, lambda x, y: np.full_like(x, c))


def _field(g, res):
    """The layer of res as a field on g: its values at its cells, 0 elsewhere."""
    vals = np.zeros(g.mask.shape)
    vals.reshape(-1)[res.cells] = res.values
    return GridField(g, vals)


def test_zero_data_gives_zero_field():
    g = SQ.grid(1 / 128)
    res = extend_boundary_data(_const_trace(g, 0.0), eps=0.1, h=g.h)
    assert res.l1_ratio == 0.0 and res.grad_ratio == 0.0
    assert np.all(_field(g, res).values == 0.0)


def test_constant_data_bounds():
    g = SQ.grid(1 / 512)
    res = extend_boundary_data(_const_trace(g, 1.0), eps=0.1, h=g.h)
    # int |g| = 4; the layer construction targets 0.4 and 4 * 1.1
    assert res.boundary_l1 == pytest.approx(4.0, rel=1e-6)
    assert res.l1_ratio <= 0.1 * 1.05
    assert res.grad_ratio <= 1.1 * 1.05


def test_alternating_edge_data_gradient_bound():
    # +-1 on the two halves of the bottom edge: the jump stresses the
    # tangential term; plain normal-offset interpolation fails this bound
    g = SQ.grid(1 / 512)
    tr = boundary_trace_from_function(
        g, lambda x, y: np.where(y < 1e-9, np.where(x < 0.5, 1.0, -1.0), 0.0))
    res = extend_boundary_data(tr, eps=0.1, h=g.h)
    assert res.grad_ratio <= 1.1 + 0.1
    assert res.l1_ratio <= 0.1 * 1.05


def test_trace_is_reproduced():
    g = SQ.grid(1 / 256)
    tr = boundary_trace_from_function(g, lambda x, y: 1.0 + 0.5 * np.sin(2 * x + y))
    res = extend_boundary_data(tr, eps=0.2, h=g.h)
    got = trace_extract(_field(g, res))
    err = np.abs(got.values - tr.values)
    assert err.max() < 0.12  # O(h/delta) * |g| + window smoothing


def test_layer_too_thin():
    g = SQ.grid(1 / 16)
    with pytest.raises(LayerTooThin):
        extend_boundary_data(_const_trace(g, 1.0), eps=0.05, h=g.h)


@pytest.mark.parametrize("kappa", [-1.0, -1e-9, np.inf, np.nan])
def test_rejects_negative_or_nonfinite_kappa(kappa):
    # the window half-width kappa * d(x) was clamped to 1e-12, so kappa = -1
    # ran as kappa = 0 and the result recorded -1
    g = SQ.grid(1 / 64)
    with pytest.raises(ValueError, match="kappa"):
        extend_boundary_data(_const_trace(g, 1.0), eps=0.5, h=g.h, kappa=kappa)
    with pytest.raises(ValueError, match="kappa"):
        extend_boundary_data(_const_trace(g, 0.0), eps=0.5, h=g.h, kappa=kappa)
    assert extend_boundary_data(_const_trace(g, 1.0), eps=0.5, h=g.h, kappa=0.0).kappa == 0.0


def test_layer_too_thin_names_the_width_cap():
    # disk256: the layer is capped at half its 0.0245 edge, so h = 1/128 is
    # too coarse at any eps, and the message must not suggest raising it
    g = builtin_domain("disk256").grid(1 / 128)
    with pytest.raises(LayerTooThin) as err:
        extend_boundary_data(_const_trace(g, 1.0), eps=1.0, h=g.h)
    msg = str(err.value)
    assert f"W = {g.dom.band_width:.4g}" in msg and "h <= W/8" in msg
    assert "increase eps" not in msg


def _certified_case(case):
    if case == "square":            # the layer reaches lattice row 0 and column 0
        g = SQ.grid(1 / 512)
        return g, _const_trace(g, 1.0), 0.1
    if case == "lshape":            # reentrant corner
        g = l_shape().grid(1 / 256)
        return g, boundary_trace_from_function(g, lambda x, y: np.sin(3 * x) + y), 0.1
    g = builtin_domain("disk64").grid(1 / 384)   # delta clamped to W, the ring outside the band
    return g, boundary_trace_from_function(g, lambda x, y: x - y), 0.1


@pytest.mark.parametrize("case", ["square", "lshape", "disk64"])
def test_certificates_equal_full_lattice_values(case):
    # the layer certificates read only the layer and one ring of cells; they
    # must agree with the full-lattice norms of the returned field
    g, tr, eps = _certified_case(case)
    res = extend_boundary_data(tr, eps=eps, h=g.h)
    field = _field(g, res)
    w = field.values
    if case == "square":
        assert np.any(w[0] != 0) and np.any(w[:, 0] != 0)
    if case == "disk64":
        dist = g.distance_maps()[0]
        assert res.corner_overlap and res.layer_width == g.dom.band_width
        assert np.any(g.mask[:-1] & (w[:-1] == 0) & (w[1:] != 0) & (dist[:-1] == np.inf))
    total = res.boundary_l1
    assert res.l1_ratio == pytest.approx(l1_norm(field) / total, rel=1e-13, abs=0)
    assert res.grad_ratio == pytest.approx(tv_grid(field) / total, rel=1e-13, abs=0)


class _SearchsortedAverager:
    """Arc-window means with one searchsorted per window end and trace: the
    reference for the grid's arc-window table."""

    def __init__(self, g):
        self.P = float(g.w.sum())
        self.breaks = np.concatenate([[0.0], np.cumsum(g.w)])
        self.vals = g.values
        self.cum = np.concatenate([[0.0], np.cumsum(g.values * g.w)])

    def _F(self, s):
        wraps = np.floor(s / self.P)
        s -= wraps * self.P
        idx = np.searchsorted(self.breaks, s, side="right")
        idx -= 1
        np.clip(idx, 0, len(self.breaks) - 2, out=idx)
        s -= self.breaks[idx]
        out = self.vals[idx]
        out *= s
        out += self.cum[idx]
        out += wraps * self.cum[-1]
        return out

    def window_mean(self, s, half_width):
        hw = np.maximum(half_width, 1e-12)
        mean = self._F(s + hw)
        mean -= self._F(s - hw)
        hw *= 2
        mean /= hw
        return mean


def _reference_extension(g, tr, delta, kappa):
    """Field and ratios from the full-lattice maps and _SearchsortedAverager.
    The ring's gradient is read from _grad on the full lattice, which gives
    the same bits as the masked differences at the ring cells alone."""
    dist, arc = g.distance_maps()
    layer = dist < delta
    cells = np.flatnonzero(layer)
    t = dist.ravel()[cells]
    w = _SearchsortedAverager(tr).window_mean(arc.ravel()[cells], kappa * t)
    cutoff = 1.0 - t / delta
    w *= cutoff
    vals = np.zeros(g.mask.shape)
    vals.reshape(-1)[cells] = w
    mass = np.abs(w)
    ring = layer.copy()
    ring[:, :-1] |= layer[:, 1:]
    ring[:-1, :] |= layer[1:, :]
    at = np.flatnonzero(ring)
    dx, dy = (d.reshape(-1)[at] for d in _grad(vals, g.h, g.neighbor_masks()))
    grad = dx * dx + dy * dy
    total = tr.abs_integral()
    return (vals, float(g.cell_area * mass.sum()) / total,
            float(g.cell_area * np.sqrt(grad).sum()) / total)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 4.0])
@pytest.mark.parametrize("case", ["square", "lshape", "disk64"])
def test_arc_window_table_matches_searchsorted(case, kappa):
    # the table's brackets and wrap counts replay the same float operations
    # as a searchsorted per member; kappa = 4 wraps windows past arc 0
    g, tr, eps = _certified_case(case)
    res = extend_boundary_data(tr, eps=eps, h=g.h, kappa=kappa)
    vals, l1_ratio, grad_ratio = _reference_extension(g, tr, res.layer_width, kappa)
    assert np.array_equal(_field(g, res).values, vals)
    assert (res.l1_ratio, res.grad_ratio) == (l1_ratio, grad_ratio)
    aw = g.arc_windows(kappa, res.layer_width)
    assert aw is g.arc_windows(kappa, res.layer_width) and aw.cells.dtype == np.int32
    if kappa == 4.0:
        assert all(wraps.dtype == np.int8 and np.any(wraps != 0) for _, wraps, _ in aw.ends)


_CORPUS_GRIDS = {"square": 1 / 256, "lshape": 1 / 256, "disk64": 1 / 192}


def _extend_verify(name, kappa, tmp_path, monkeypatch):
    """Run extend-verify's 20 members on name's grid; returns the grid, each
    extend_boundary_data call's (trace, result) and the tables built."""
    calls, built = [], []
    real_maps = geometry.DomainGrid.distance_maps
    monkeypatch.setattr(geometry.DomainGrid, "distance_maps",
                        lambda self, reach=None: built.append(reach) or real_maps(self, reach))

    def record(tr, **kw):
        res = extend_boundary_data(tr, **kw)
        calls.append((tr, res))
        return res
    monkeypatch.setattr(cli, "extend_boundary_data", record)
    h = _CORPUS_GRIDS[name]
    cli.run_scenario({"task": "extend-verify", "domain": name, "grid_h": h, "seed": 3,
                      "params": {"eps": 0.1, "n_corpus": 20, "kappa": kappa}}, tmp_path)
    return calls[0][0].grid, calls, list(built)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 4.0])
@pytest.mark.parametrize("name", sorted(_CORPUS_GRIDS))
def test_corpus_pass_matches_the_full_band_reference(name, kappa, tmp_path, monkeypatch):
    # one table for the corpus, out to its widest layer: that member takes
    # every row, the narrower ones gather theirs, and disk64's widest are
    # capped at W; each must give the full-band reference bit for bit
    g, calls, built = _extend_verify(name, kappa, tmp_path, monkeypatch)
    assert len(calls) == 20
    aw = g.arc_windows(kappa, 0.0)
    widths = [res.layer_width for _, res in calls]
    assert built == [aw.reach] == [max(widths)] and min(widths) < aw.reach
    assert any(res.corner_overlap for _, res in calls) == (name == "disk64")
    for tr, res in calls:
        vals, l1_ratio, grad_ratio = _reference_extension(g, tr, res.layer_width, kappa)
        assert np.array_equal(_field(g, res).values, vals)
        assert (res.l1_ratio, res.grad_ratio) == (l1_ratio, grad_ratio)


def test_table_grows_only_for_a_wider_layer():
    # a grid asked for a narrow reach and then wider ones gives what a fresh
    # grid sized at once to the widest gives, and keeps its table for any
    # reach it covers
    fresh, grown = l_shape().grid(1 / 256), l_shape().grid(1 / 256)
    members = []
    for name, fn in corpus.boundary_data(20, np.random.default_rng(5)):
        tr = boundary_trace_from_function(grown, fn)
        members.append((boundary_trace_from_function(fresh, fn), tr,
                        max(0.1, required_eps(tr))))

    def width(member):
        return min(_layer_width(member[1], member[2]), grown.dom.band_width)
    widths = sorted(map(width, members))
    assert widths[0] < widths[-1]
    narrow = grown.arc_windows(0.5, widths[0])
    assert grown.arc_windows(0.5, widths[0] / 2) is narrow
    fresh.arc_windows(0.5, widths[-1])
    for tr_fresh, tr, eps in sorted(members, key=width):
        want = extend_boundary_data(tr_fresh, eps=eps, h=fresh.h)
        got = extend_boundary_data(tr, eps=eps, h=grown.h)
        assert grown.arc_windows(0.5, 0.0).reach == got.layer_width
        assert np.array_equal(got.cells, want.cells)
        assert np.array_equal(got.values, want.values)
        assert (got.l1_ratio, got.grad_ratio) == (want.l1_ratio, want.grad_ratio)
    wide, full = grown.arc_windows(0.5, 0.0), fresh.arc_windows(0.5, 0.0)
    assert wide is not narrow and wide.reach == full.reach == widths[-1]
    for a, b in ((wide.cells, full.cells), (wide.t, full.t), (wide.ring, full.ring),
                 (wide.ring_t, full.ring_t), *zip(sum(wide.ends, ()), sum(full.ends, ()))):
        assert np.array_equal(a, b)


def test_thin_corpus_raises_before_any_table(tmp_path, monkeypatch):
    # disk256's layers are capped at W < 8h at h = 1/128: extend-verify
    # raises LayerTooThin out of extend_boundary_data, at the first member,
    # and builds no arc-window table first
    built, calls = [], []
    monkeypatch.setattr(geometry.DomainGrid, "distance_maps", lambda *a: built.append(a))
    real = cli.extend_boundary_data
    monkeypatch.setattr(cli, "extend_boundary_data", lambda *a, **kw: calls.append(a) or
                        real(*a, **kw))
    with pytest.raises(LayerTooThin, match="capped at W") as err:
        cli.run_scenario({"task": "extend-verify", "domain": "disk256", "grid_h": 1 / 128,
                          "params": {"eps": 0.1, "n_corpus": 20}}, tmp_path)
    assert err.traceback[-1].name == "extend_boundary_data"
    assert built == [] and len(calls) == 1


def test_trace_of_another_grid_is_rejected():
    # the exact trace is sampled on no grid
    for tr in (_const_trace(SQ.grid(1 / 64), 1.0), _legs_trace(SQ, [(0.0, 0.5, 1.0)])):
        with pytest.raises(MaskMismatch):
            extend_boundary_data(tr, eps=0.5, h=1 / 128)
        with pytest.raises(MaskMismatch):
            extend_boundary_data(tr.map_values(np.zeros_like), eps=0.5, h=1 / 128)


def test_trace_extends_on_its_own_grid():
    # a trace sampled on a grid built directly, not through dom.grid, gets
    # its layer and arc-window table on that grid; the domain builds none
    dom = unit_square()
    g = DomainGrid(dom, 1 / 128)
    res = extend_boundary_data(_const_trace(g, 1.0), eps=0.1, h=g.h)
    aw = g.arc_windows(0.5, 0.0)
    assert aw.reach == res.layer_width and res.cells is aw.cells
    assert dom._grids == {}


_FLOOR_DOMAINS = {name: builtin_domain(name) for name in ("square", "lshape", "disk64")}


@given(name=st.sampled_from(sorted(_FLOOR_DOMAINS)), k=st.sampled_from([64, 128, 256]),
       member=st.integers(0, 39), seed=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_required_eps_is_resolvable(name, k, member, seed):
    # the floor's eps gives a layer of at least 8 cells whenever the width
    # stays below the cap W: rounding must not drop it one ulp under 8h
    g = _FLOOR_DOMAINS[name].grid(1 / k)
    fn = corpus.boundary_data(member + 1, np.random.default_rng(seed))[member][1]
    tr = boundary_trace_from_function(g, fn)
    eps = required_eps(tr)
    assume(eps <= 1 and _layer_width(tr, eps) < g.dom.band_width)
    assert not g.h > _layer_width(tr, eps) / 8
    extend_boundary_data(tr, eps=eps, h=g.h)


def test_certificates_of_zero_data():
    g = SQ.grid(1 / 512)
    res = extend_boundary_data(_const_trace(g, 0.0), eps=0.1, h=g.h)
    assert (res.l1_ratio, res.grad_ratio) == (0.0, 0.0)
    assert l1_norm(_field(g, res)) == 0.0 and tv_grid(_field(g, res)) == 0.0


def test_extension_memory_guard():
    # with the grid's arc-window table warm, one member costs less than three
    # lattice float arrays; certificates over the full lattice need about 4.5
    g = builtin_domain("disk64").grid(1 / 384)
    g.arc_windows(0.5, g.dom.band_width)
    g.neighbor_masks()
    tr = boundary_trace_from_function(g, lambda x, y: x - y)
    tracemalloc.start()
    try:
        extend_boundary_data(tr, eps=0.1, h=g.h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * g.mask.size * 8


def test_l1_ratio_scales_linearly_in_eps():
    # below the corner clamp the mass of the layer is close to linear in its
    # width (the quadratic corner correction stays under ~25%)
    g = SQ.grid(1 / 512)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        res = extend_boundary_data(_const_trace(g, 1.0), eps=eps, h=g.h)
        assert not res.corner_overlap
        ratios.append(res.l1_ratio / eps)
    assert max(ratios) / min(ratios) < 1.3


def test_recovery_identity_when_trace_matches():
    g = SQ.grid(1 / 128)
    u = field_from_function(g, lambda X, Y: X)
    p = trace_extract(u)
    un, eps = recovery_sequence(u, p, 10)
    assert un is u and eps == 0.0


def test_recovery_rejects_a_trace_of_another_grid():
    # p sampled on a second grid of the same domain and spacing: its samples
    # equal those of Tr u, but it does not live on u's grid
    u = constant_field(SQ.grid(1 / 64), 0.0)
    p = _const_trace(DomainGrid(SQ, 1 / 64), 1.0)
    assert np.array_equal(p.s, trace_extract(u).s)
    with pytest.raises(MaskMismatch, match="not sampled on the grid of u"):
        recovery_sequence(u, p, 4)


def test_recovery_bounds_constant_lift():
    g = SQ.grid(1 / 512)
    u = constant_field(g, 0.0)
    p = _const_trace(g, 1.0)
    n = 10
    un, eps = recovery_sequence(u, p, n)
    assert eps == 1 / n
    # int |p - Tr u| = 4: gradient <= 4 (1 + 1/n), distance <= 4/n
    assert tv_grid(un) <= 4 * (1 + 1 / n) * 1.05
    assert l1_distance(un, u) <= 0.4 * 1.05
    tr = trace_extract(un)
    assert np.abs(tr.values - 1.0).max() < 0.1


def test_optimal_values_fixed_point_for_lipschitz():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: X - 0.3)
    d = density.linear(-0.5)
    ctx = YosidaContext(sigma=1.0)
    p = optimal_boundary_values(u, d, ctx, eps=1e-3)
    assert np.allclose(p.values, trace_extract(u).values)


def test_optimal_values_absolute_supersigma():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: X + 0.2)
    d = density.absolute(2.0)
    ctx = YosidaContext(sigma=1.0)
    p = optimal_boundary_values(u, d, ctx, eps=1e-3)
    assert np.all(p.values == 0.0)


def test_optimal_values_quadratic_closed_form():
    g = SQ.grid(1 / 64)
    u = constant_field(g, 1.0)
    d = density.quadratic()
    ctx = YosidaContext(sigma=1.0)
    p = optimal_boundary_values(u, d, ctx, eps=1e-3)
    assert np.allclose(p.values, 0.5)
    # achieved value equals the transform: 1/4 + 1/2 = 3/4
    achieved = d.eval_many(None, p.values) + 1.0 * np.abs(1.0 - p.values)
    assert np.allclose(achieved, 0.75, atol=1e-9)


@pytest.mark.parametrize("d", [density.absolute(-2.0), density.linear(-2.0),
                               density.linear(1.5)], ids=["absolute-2", "linear-2", "linear1.5"])
def test_optimal_values_reject_unbounded_transform(d):
    # tau falls faster than sigma|p|, so tau_hat is -infinity: the chosen q
    # cannot come within eps of it, and both lookups must say so alike
    g = SQ.grid(1 / 32)
    u = field_from_function(g, lambda X, Y: 2 * X + 0.5)
    ctx = YosidaContext(sigma=1.0)
    with pytest.raises(UnboundedBelow):
        yosida_eval_many(d, ctx, None, trace_extract(u).values)
    with pytest.raises(UnboundedBelow):
        optimal_boundary_values(u, d, ctx, eps=1e-3)


def test_optimal_values_grid_search_expression():
    g = SQ.grid(1 / 64)
    u = field_from_function(g, lambda X, Y: 2 * X - 1)
    d = density.expression("2*min(abs(p-1), abs(p+1))", c=0.0, L=0.0)
    ctx = YosidaContext(sigma=1.0)
    eps = 1e-2
    p = optimal_boundary_values(u, d, ctx, eps=eps)
    t = trace_extract(u).values
    achieved = d.eval_many(None, p.values) + ctx.sigma * np.abs(t - p.values)
    hat = yosida_eval_many(d, ctx, (0.0, 0.0), t)
    assert np.all(achieved <= hat + eps)


def test_optimal_values_read_nan_density_as_sentinel():
    # sqrt(p) is NaN for p < 0; every grid search reads that as NEG_SENTINEL,
    # so the chosen q must attain the transform there too
    g = SQ.grid(1 / 32)
    u = field_from_function(g, lambda X, Y: 2 * X + 0.5)
    d = density.expression("sqrt(p)", c=0, L=0)
    ctx = YosidaContext(sigma=1.0)
    eps = 1e-2
    p = optimal_boundary_values(u, d, ctx, eps=eps)
    t = trace_extract(u).values
    tau = d.eval_many(None, p.values)
    achieved = np.where(np.isfinite(tau), tau, NEG_SENTINEL) + ctx.sigma * np.abs(t - p.values)
    hat = yosida_eval_many(d, ctx, None, t)
    assert np.all(np.abs(achieved - hat) <= eps)


def test_recovery_past_eps_one_raises_layer_too_thin():
    # a resolvability floor above eps = 1 reached extend_boundary_data as
    # eps > 1, an untyped ValueError (relax-verify on the square at h = 1)
    g = SQ.grid(1.0)
    u = field_from_function(g, lambda X, Y: X)
    with pytest.raises(LayerTooThin):
        recovery_sequence(u, trace_extract(constant_field(g, 0.0)), 4)


def test_random_fields_lets_other_extension_errors_through(monkeypatch):
    # the boundary-layer family falls back to the plain field on LayerTooThin only
    def broken(*args, **kwargs):
        raise ValueError("broken extension")
    monkeypatch.setattr(corpus, "extend_boundary_data", broken)
    with pytest.raises(ValueError, match="broken extension"):
        corpus.random_fields(SQ.grid(1 / 32), 7, seed=0)
