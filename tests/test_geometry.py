import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bvcontact import density, geometry
from bvcontact.corpus import boundary_data
from bvcontact.errors import LayerTooThin, SchemaError
from bvcontact.extension import extend_boundary_data, required_eps
from bvcontact.geometry import (admissibility_check, builtin_domain, corner_q, domain_Q,
                                emmer_check, l_shape, regular_ngon, unit_square,
                                wedge_cut_ratio)
from bvcontact.grid import boundary_trace_from_function


@pytest.mark.parametrize("name, h", [("square", 2.0), ("square", 1e300), ("lshape", 1.0)])
def test_grid_with_no_cell_inside_is_too_coarse(name, h):
    # the lattice's only cell center lies outside (on the L-shape's reentrant
    # corner at h = 1); boundary sampling then failed in np.argmin
    with pytest.raises(LayerTooThin, match="no cell center inside"):
        builtin_domain(name).grid(h)
    assert builtin_domain(name).grid(0.5).n_cells > 0


def test_corner_q_square_corner():
    assert corner_q(math.pi / 2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_corner_q_flat_and_reentrant():
    assert corner_q(math.pi) == 1.0
    assert corner_q(3 * math.pi / 2) == 1.0


def test_corner_q_sixty_degrees():
    # 1/sin(pi/6) = 2, cross-checked against the cut-ratio oracle below
    assert corner_q(math.pi / 3) == pytest.approx(2.0, abs=1e-12)


def test_corner_q_rejects_cusps():
    for theta in (0.0, 2 * math.pi, -0.1, 7.0):
        with pytest.raises(ValueError):
            corner_q(theta)


@given(theta=st.floats(0.1, math.pi - 0.1), a=st.floats(1e-3, 10.0))
@settings(max_examples=200, deadline=None)
def test_cut_ratio_matches_corner_q(theta, a):
    assert wedge_cut_ratio(theta, a) == pytest.approx(corner_q(theta), abs=1e-10)


def test_cut_ratio_scale_invariance():
    r1 = wedge_cut_ratio(1.0, 0.1)
    r2 = wedge_cut_ratio(1.0, 0.05)
    assert r1 == r2


def test_cut_ratio_rejects_flat():
    with pytest.raises(ValueError):
        wedge_cut_ratio(math.pi, 0.1)


def test_corner_q_monotone_on_convex_range():
    thetas = np.linspace(0.05, math.pi, 300)
    qs = [corner_q(t) for t in thetas]
    assert all(a >= b - 1e-14 for a, b in zip(qs, qs[1:]))
    assert qs[-1] == pytest.approx(1.0, abs=1e-9)


def test_domain_Q_square():
    assert domain_Q(unit_square()) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_domain_Q_ngon_close_to_one():
    assert domain_Q(regular_ngon(256)) == pytest.approx(1.0, abs=1e-3)


def test_domain_Q_lshape():
    dom = l_shape()
    assert len(dom.corner_records) == 6
    thetas = sorted(r.theta for r in dom.corner_records)
    assert thetas[-1] == pytest.approx(3 * math.pi / 2, abs=1e-9)
    assert domain_Q(dom) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_domain_Q_rigid_motion_and_scale_invariant():
    rng = np.random.default_rng(0)
    base = l_shape()
    ang = rng.uniform(0, 2 * math.pi)
    R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    verts = 3.7 * base.vertices @ R.T + np.array([5.0, -2.0])
    moved = geometry.PolygonalDomain(verts)
    assert domain_Q(moved) == pytest.approx(domain_Q(base), abs=1e-9)


def test_rejects_clockwise():
    with pytest.raises(SchemaError):
        geometry.PolygonalDomain([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_rejects_self_intersection():
    with pytest.raises(SchemaError):
        geometry.PolygonalDomain([[0, 0], [1, 1], [1, 0], [0, 1]])


def _swapped_ngon(n, k):
    # vertices k and k + 1 of a regular n-gon swapped: edges k - 1 and k + 1
    # cross, and no other pair does
    th = 2 * np.pi * np.arange(n) / n
    v = np.column_stack([np.cos(th), np.sin(th)])
    v[[k, k + 1]] = v[[k + 1, k]]
    return v


def test_self_intersection_names_the_crossing_edges():
    # 3000 edges: the crossing lies in the 120th block of 21 rows
    with pytest.raises(SchemaError) as ei:
        geometry.PolygonalDomain(_swapped_ngon(3000, 2500))
    assert ei.value.location == "edges 2499 and 2501"


def _first_crossing(v):
    """The simplicity check's pair test, one edge i at a time."""
    n = len(v)
    a, b = v, np.roll(v, -1, axis=0)
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        d1, d2 = b[i] - a[i], b[js] - a[js]
        denom = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
        w = a[js] - a[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / denom
            ss = (w[:, 0] * d1[1] - w[:, 1] * d1[0]) / denom
        crossing = (np.abs(denom) > 1e-14) & (tt > 1e-12) & (tt < 1 - 1e-12) \
            & (ss > 1e-12) & (ss < 1 - 1e-12)
        if np.any(crossing):
            return f"edges {i} and {js[np.argmax(crossing)]}"
    return None


@pytest.mark.parametrize("pairs", [7, 64, geometry.SIMPLE_CHECK_PAIRS])
def test_self_intersection_location_matches_pairwise_loop(pairs, monkeypatch):
    monkeypatch.setattr(geometry, "SIMPLE_CHECK_PAIRS", pairs)
    rng = np.random.default_rng(11)
    for _ in range(150):
        v = rng.normal(size=(int(rng.integers(4, 30)), 2))
        if np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]) < 0:
            v = v[::-1]
        want = _first_crossing(v)
        try:
            geometry.PolygonalDomain(v)
            got = None
        except SchemaError as e:
            got = e.location
        assert got == want


def _loop_corner_data(dom):
    """Interior angles, corner records and Lipschitz constant vertex by
    vertex with the math module, as PolygonalDomain computed them before."""
    v, n = dom.vertices, dom.n
    angles = []
    for i in range(n):
        prev, nxt = v[i] - v[i - 1], v[(i + 1) % n] - v[i]
        angles.append(math.pi - math.atan2(prev[0] * nxt[1] - prev[1] * nxt[0],
                                           prev[0] * nxt[0] + prev[1] * nxt[1]))
    records = [geometry.CornerRecord(i, float(th), (1.0 / math.tan(th / 2.0))
                                     if th < math.pi - geometry.FLAT_TOL else None)
               for i, th in enumerate(angles) if abs(th - math.pi) > 1e-9]
    lip = max(abs(math.cos(th / 2.0) / math.sin(th / 2.0)) for th in angles)
    return angles, records, lip


@pytest.mark.parametrize("make", [*geometry.BUILTIN_DOMAINS.values(),
                                  lambda: regular_ngon(256, radius=0.7)],
                         ids=[*geometry.BUILTIN_DOMAINS, "ngon256-r0.7"])
def test_corner_data_identical_to_vertex_loop(make):
    dom = make()
    angles, records, lip = _loop_corner_data(dom)
    assert dom.interior_angles.tolist() == angles
    assert dom.corner_records == records
    assert dom.lipschitz_constant == lip


@pytest.mark.parametrize("verts, match, location", [
    ([[0, 0], [1, 0]], "n >= 3", None),
    ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], "n >= 3", None),
    ([[0, 0], [1, 0], [1, math.nan], [0, 1]], "non-finite", "vertex 2"),
    ([[0, 0], [1, 0], [1, 1], [-math.inf, 1]], "non-finite", "vertex 3"),
])
def test_rejects_malformed_vertices(verts, match, location):
    with pytest.raises(SchemaError, match=match) as ei:
        geometry.PolygonalDomain(verts)
    assert ei.value.location == location


def test_rejects_repeated_vertex():
    with pytest.raises(SchemaError, match="vertex 1"):
        geometry.PolygonalDomain([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]])


def test_admissibility_square_ok():
    d = density.linear(-0.5, L=0.5)
    rep = admissibility_check(unit_square(), d, sigma=1.0, epsilon0=0.1)
    assert rep.verdict == "almost_C1_clause"
    # 0.5*sqrt(2) = 0.707 <= 0.8
    assert rep.min_slack == pytest.approx(0.8 - 0.5 * math.sqrt(2), abs=1e-9)


def test_admissibility_square_corner_violation():
    d = density.linear(-0.75)
    rep = admissibility_check(unit_square(), d, sigma=1.0, epsilon0=1e-6)
    assert rep.verdict == "inadmissible"


@pytest.mark.parametrize("name", ["disk64", "disk256"])
@pytest.mark.parametrize("factor", [1 - 1e-6, 1.0, 1 + 1e-6], ids=["below", "at", "above"])
def test_admissibility_c2_clause(name, factor):
    # the smooth clause sup L <= sigma is no verdict of its own: a disk
    # polygon is judged at its corners, where q = 1/cos(pi/n), so near
    # sup L = sigma every row fails by the corners' slack alone (about
    # -1.2e-3 on disk64, -7.5e-5 on disk256)
    rep = admissibility_check(builtin_domain(name), density.linear(-factor), sigma=1.0,
                              epsilon0=0.0)
    assert rep.verdict == "inadmissible"
    n = int(name.removeprefix("disk"))
    assert rep.min_slack == pytest.approx(1.0 - factor / math.cos(math.pi / n), rel=1e-9)


NGON_SIDES = (4, 16, 64, 256, 1024)


@pytest.mark.parametrize("n", NGON_SIDES)
def test_ngon_threshold_is_cos_pi_over_n(n):
    # the n-gon's corners of angle pi - 2 pi/n have q = 1/cos(pi/n), so
    # linear(lam) is represented exactly while |lam| < sigma cos(pi/n)
    dom = regular_ngon(n)
    lam = math.cos(math.pi / n)
    below = admissibility_check(dom, density.linear(-(lam - 1e-9)), 1.0, 0.0)
    above = admissibility_check(dom, density.linear(-(lam + 1e-9)), 1.0, 0.0)
    assert below.verdict == "almost_C1_clause" and above.verdict == "inadmissible"


def test_ngon_threshold_tends_to_sigma_at_order_two():
    # the paper's smooth clause (sup L <= sigma) as the limit of the n-gon
    # thresholds, read from the verdict's slack at L = 1: 1 - L q = 1 - 1/t
    gaps = {}
    for n in NGON_SIDES[1:]:
        rep = admissibility_check(regular_ngon(n), density.linear(-1.0), 1.0, 0.0)
        gaps[n] = 1.0 - 1.0 / (1.0 - rep.min_slack)
    orders = [math.log(gaps[n] / gaps[4 * n], 4) for n in NGON_SIDES[1:-1]]
    assert all(1.95 <= p <= 2.05 for p in orders), orders
    assert 1024 ** 2 * gaps[1024] == pytest.approx(math.pi ** 2 / 2, abs=1e-3)


def test_admissibility_monotone_in_L():
    dom = unit_square()
    order = {"almost_C1_clause": 0, "inadmissible": 1}
    prev = 0
    for Lval in (0.1, 0.3, 0.5, 0.7, 0.71, 0.9):
        rep = admissibility_check(dom, density.linear(-Lval), 1.0, 1e-9)
        assert order[rep.verdict] >= prev
        prev = order[rep.verdict]


def _sampled_min_slack(dom, d, sigma, epsilon0):
    """The least slack over edge samples at shortest_edge/16 and the
    vertices, as admissibility_check sampled it before it read L's sup."""
    bound = (1.0 - 2.0 * epsilon0) * sigma
    s, _, _ = dom.edge_samples(dom.shortest_edge / 16.0)
    pts = np.concatenate([dom.boundary_point(s), dom.vertices])
    q = np.concatenate([np.ones(len(s)), [corner_q(th) for th in dom.interior_angles]])
    L = np.array([d.L_at(x) for x in pts])
    return float((bound - L * q).min())


def _assert_slack_matches_samples(dom):
    for Lval in (0.0, 0.3, 0.7071, 1.2):
        for eps0 in (0.0, 0.1):
            d = density.linear(-Lval)
            got = admissibility_check(dom, d, 1.0, eps0).min_slack
            assert got == _sampled_min_slack(dom, d, 1.0, eps0), (Lval, eps0)


@pytest.mark.parametrize("name", geometry.BUILTIN_DOMAINS)
def test_admissibility_slack_of_a_constant_L_matches_edge_samples(name):
    _assert_slack_matches_samples(builtin_domain(name))


def _peaked_L(x):
    return 0.5 + 0.6 * math.exp(-((x[0] - 0.51) ** 2 + x[1] ** 2) / 1e-6)


_peaked_L.sup = 1.1


def test_admissibility_reads_the_declared_sup_of_a_callable_L():
    # L peaks at 1.1 > sigma between two edge samples at shortest_edge/16
    # (0.46875 and 0.53125); the corners alone would give slack 1 - 0.5 sqrt(2)
    d = density.SurfaceDensity.from_callable(
        lambda x, P: -_peaked_L(x) * np.abs(P), L=_peaked_L)
    rep = admissibility_check(unit_square(), d, 1.0, 0.0)
    assert rep.verdict == "inadmissible"
    assert rep.min_slack == pytest.approx(-0.1, abs=1e-12)
    no_sup = density.SurfaceDensity.from_callable(lambda x, P: -0.5 * np.abs(P),
                                                  L=lambda x: 0.5)
    with pytest.raises(ValueError, match=r"\.sup"):
        admissibility_check(unit_square(), no_sup, 1.0, 0.0)


def test_emmer_square():
    dom = unit_square()
    assert dom.lipschitz_constant == pytest.approx(1.0, abs=1e-12)
    r = emmer_check(0.5, dom)
    assert r["passes"] and r["bound"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert not emmer_check(0.8, dom)["passes"]


def test_boundary_samples_sum_to_perimeter():
    for dom in (unit_square(), l_shape(), regular_ngon(64)):
        g = dom.grid(1 / 64)
        b = g.boundary()
        assert b.w.sum() == pytest.approx(dom.perimeter, rel=1e-9)
        for i in range(dom.n):
            on = b.edge_id == i
            d, _ = dom._edge_distance(i, b.x[on, 0], b.x[on, 1])
            assert on.any() and d.max() < 1e-9
        assert g.mask.reshape(-1)[b.probe].all()


def test_mask_centers_inside():
    # the L-shape is the unit square less its open upper-right quarter
    dom = l_shape()
    g = dom.grid(1 / 32)
    X, Y = g.cell_centers()
    inside = (0 < X) & (X < 1) & (0 < Y) & (Y < 1) & ((X < 0.5) | (Y < 0.5))
    assert np.array_equal(g.mask, inside)
    assert g.n_cells == pytest.approx(dom.area / g.cell_area, rel=0.05)


def test_square_mask_exact():
    g = unit_square().grid(1 / 64)
    assert g.mask.all() and g.mask.shape == (64, 64)


def test_domain_json_roundtrip(tmp_path):
    dom = l_shape()
    path = tmp_path / "dom.json"
    path.write_text(json.dumps({"vertices": dom.vertices.tolist(), "name": dom.name}))
    back = geometry.load_domain(path)
    assert np.allclose(back.vertices, dom.vertices)
    assert domain_Q(back) == domain_Q(dom)


def test_domain_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0,0],[1,0],[0,1]], "frobnicate": 1}')
    with pytest.raises(SchemaError):
        geometry.load_domain(path)


@pytest.mark.parametrize("text, location", [
    ('{"vertices": [[0,0],[1,0],\n[0,1]', "line 2"),
    ('[[0,0],[1,0],[0,1]]', None),
    ('{"name": "x"}', None),
])
def test_domain_json_refuses_malformed_files(tmp_path, text, location):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as ei:
        geometry.load_domain(path)
    assert ei.value.location == location


@pytest.mark.parametrize("key, value", [("smooth_flag", "true"),
                                        ("angle_overrides", '{"0": 1.0}'),
                                        ("lipschitz_constant", "0.0")])
def test_domain_json_refuses_a_declared_geometry(tmp_path, key, value):
    # a polygon's angles and Lipschitz constant come from its vertices alone
    path = tmp_path / "square.json"
    path.write_text(f'{{"vertices": [[0,0],[1,0],[1,1],[0,1]], "{key}": {value}}}')
    with pytest.raises(SchemaError, match=key):
        geometry.load_domain(path)


def test_builtin_domain_refuses_an_unknown_name():
    with pytest.raises(SchemaError, match="'annulus'"):
        builtin_domain("annulus")


# -- band-limited lattice geometry against the dense all-edges references ------


def _dense_mask(dom, g):
    """Even-odd test of every lattice cell against every edge."""
    X, Y = np.meshgrid(g.xs, g.ys)
    x, y = X.ravel(), Y.ravel()
    inside = np.zeros(len(x), dtype=bool)
    v = dom.vertices
    for i in range(dom.n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % dom.n]
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xint)
    return inside.reshape(X.shape)


def _dense_maps(dom, g, mask):
    """Segment distance and nearest arc of every lattice cell to every edge,
    first nearest edge in edge order; inf/0 outside the mask."""
    X, Y = np.meshgrid(g.xs, g.ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    best_d = np.full(len(pts), np.inf)
    best_s = np.zeros(len(pts))
    v = dom.vertices
    for i in range(dom.n):
        a = v[i]
        d = v[(i + 1) % dom.n] - a
        t = np.clip(((pts - a) @ d) / (d @ d), 0.0, 1.0)
        proj = a + t[:, None] * d
        dist = np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])
        upd = dist < best_d
        best_d[upd] = dist[upd]
        best_s[upd] = dom.arc_offsets[i] + t[upd] * dom.edge_lengths[i]
    d, s = best_d.reshape(X.shape), best_s.reshape(X.shape)
    return np.where(mask, d, np.inf), np.where(mask, s, 0.0)


def _assert_matches_dense(dom, h):
    g = dom.grid(h)
    mask = _dense_mask(dom, g)
    assert np.array_equal(g.mask, mask)
    d_ref, s_ref = _dense_maps(dom, g, mask)
    d, s = g.distance_maps()
    band = d_ref < dom.band_width
    assert np.array_equal(d[band], d_ref[band])
    assert np.array_equal(s[band], s_ref[band])
    assert np.all(d[~band] == np.inf) and np.all(s[~band] == 0.0)


@pytest.mark.parametrize("h", [1 / 128, 1 / 97])
@pytest.mark.parametrize("name", ["square", "lshape", "disk64", "disk256"])
def test_band_geometry_matches_dense_on_builtins(name, h):
    _assert_matches_dense(builtin_domain(name), h)


@pytest.mark.parametrize("name", ["square", "lshape", "disk64"])
def test_band_geometry_within_a_reach_matches_dense(name):
    # maps built out to a reach below W are exact closer than the reach and
    # inf / 0 beyond it, as the W maps are closer than W
    dom = builtin_domain(name)
    g = dom.grid(1 / 97)
    reach = dom.band_width / 3
    d_ref, s_ref = _dense_maps(dom, g, _dense_mask(dom, g))
    d, s = g.distance_maps(reach)
    band = d_ref < reach
    assert band.any() and np.any(~band & (d_ref < dom.band_width))
    assert np.array_equal(d[band], d_ref[band]) and np.array_equal(s[band], s_ref[band])
    assert np.all(d[~band] == np.inf) and np.all(s[~band] == 0.0)


def _ring_reference(g, reach):
    """The arc-window table's ring from full-lattice shifts: row positions of
    each ring cell and of its masked +x and +y neighbors, and the least t of
    the cell and its lattice neighbors."""
    d, _ = g.distance_maps(reach)
    rows = d < reach
    n, (ny, nx) = int(rows.sum()), rows.shape
    where = np.full((ny + 1, nx + 1), n)
    where[:ny, :nx][rows] = np.arange(n)
    t = np.full((ny + 1, nx + 1), np.inf)
    t[:ny, :nx][rows] = d[rows]
    ring = rows.copy()
    ring[:, :-1] |= rows[:, 1:]
    ring[:-1, :] |= rows[1:, :]
    ok = g.neighbor_masks()
    here = where[:ny, :nx]
    pos = [here, np.where(ok[0], where[:ny, 1:], here), np.where(ok[1], where[1:, :nx], here)]
    least = np.minimum(np.minimum(t[:ny, :nx], t[:ny, 1:nx + 1]), t[1:, :nx])
    return np.stack([p[ring] for p in pos]), least[ring]


# trap's lattice leaves a cell of the last column whose next flat index, the
# first cell of the next row, lies nearer the boundary
@pytest.mark.parametrize("name, h", [("square", 1 / 64), ("lshape", 1 / 64), ("disk64", 1 / 32),
                                     ("trap", 1 / 16)])
def test_arc_window_ring_matches_lattice_shifts(name, h):
    dom = (geometry.PolygonalDomain([[0.2, 0], [1, 0], [1, 1], [0, 1]]) if name == "trap"
           else builtin_domain(name))
    g = dom.grid(h)
    for reach in (dom.band_width / 2, dom.band_width):
        aw = g.arc_windows(0.5, reach)
        pos, least = _ring_reference(g, reach)
        assert aw.ring.dtype == np.int32
        assert np.array_equal(aw.ring, pos) and np.array_equal(aw.ring_t, least)


def test_band_geometry_matches_dense_with_vertices_on_rows():
    # a notch with reentrant corners whose horizontal edge lies on the
    # cell-centre row y = 27/64 of the h = 1/32 lattice
    dom = geometry.PolygonalDomain([[0, 0], [1, 0], [1, 1], [0.75, 1], [0.75, 27 / 64],
                                    [0.5, 27 / 64], [0.5, 1], [0, 1]])
    g = dom.grid(1 / 32)
    assert np.any(g.ys == 27 / 64)
    _assert_matches_dense(dom, 1 / 32)


def test_band_geometry_matches_dense_with_vertical_edges_on_columns():
    # a notch whose vertical edges lie on the cell-centre columns x = 27/64
    # and x = 37/64 of the h = 1/32 lattice: a crossing at a centre is not
    # right of it
    dom = geometry.PolygonalDomain([[0, 0], [1, 0], [1, 1], [37 / 64, 1], [37 / 64, 0.5],
                                    [27 / 64, 0.5], [27 / 64, 1], [0, 1]])
    g = dom.grid(1 / 32)
    assert np.any(g.xs == 27 / 64) and np.any(g.xs == 37 / 64)
    _assert_matches_dense(dom, 1 / 32)


def test_mask_memory_guard():
    # the crossing table (1024 rows x 256 edges) sets the peak at 4.34 MiB;
    # the mask takes one byte a cell
    dom = regular_ngon(256)
    tracemalloc.start()
    try:
        geometry.DomainGrid(dom, 1 / 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 4.34 * 2 ** 20


def test_grid_out_of_memory_raises_schema_error(monkeypatch):
    # a lattice under the 2^31-cell cap that does not fit in memory
    def no_memory(*args):
        raise MemoryError
    monkeypatch.setattr(geometry, "_crossings", no_memory)
    with pytest.raises(SchemaError, match="does not fit in memory") as ei:
        geometry.DomainGrid(unit_square(), 1 / 16)
    assert ei.value.location == "grid_h"


@pytest.mark.parametrize("table", ["distance_maps", "arc_windows"])
def test_band_tables_out_of_memory_raise_schema_error(monkeypatch, table):
    # the extension's per-grid tables map a MemoryError as the lattice does;
    # the arc-window table runs out after its distance maps are built
    def no_memory(*args):
        raise MemoryError
    g = geometry.DomainGrid(unit_square(), 1 / 16)
    if table == "distance_maps":
        monkeypatch.setattr(geometry.PolygonalDomain, "_edge_distance", no_memory)
    else:
        monkeypatch.setattr(geometry.ArcWindows, "half_width", no_memory)
    with pytest.raises(SchemaError, match="does not fit in memory") as ei:
        g.distance_maps() if table == "distance_maps" else g.arc_windows(0.5, 0.5)
    assert ei.value.location == "grid_h"


@st.composite
def _snapped_polygons(draw):
    """Simple polygons with vertices on the half-cell lattice of h, so some
    lie on cell-centre rows, some edges are horizontal, some corners reentrant."""
    n = draw(st.integers(3, 10))
    h = 1.0 / draw(st.sampled_from([16, 23, 32]))
    gaps = np.array(draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ang = 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    v = np.round(radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)]) / (h / 2)) * (h / 2)
    for i in np.flatnonzero(flat):
        v[(i + 1) % n, 1] = v[i, 1]
    try:
        dom = geometry.PolygonalDomain(v)
        dom.grid(h)                      # LayerTooThin: no cell centre inside
    except (SchemaError, LayerTooThin):
        assume(False)
    return dom, h


@given(case=_snapped_polygons())
@settings(max_examples=60, deadline=None)
def test_band_geometry_matches_dense_on_random_polygons(case):
    dom, h = case
    _assert_matches_dense(dom, h)


@given(case=_snapped_polygons())
@settings(max_examples=30, deadline=None)
def test_admissibility_slack_of_a_constant_L_matches_edge_samples_on_stars(case):
    _assert_slack_matches_samples(case[0])


@pytest.fixture(scope="module")
def disk64_fine_reference():
    """disk64 at h = 1/384 twice: one grid with band-limited maps, one whose
    distance_maps returns the dense reference."""
    h = 1 / 384
    dom, ref = builtin_domain("disk64"), builtin_domain("disk64")
    g_ref = ref.grid(h)
    maps = _dense_maps(ref, g_ref, _dense_mask(ref, g_ref))
    g_ref.distance_maps = lambda reach: maps
    return dom.grid(h), g_ref


@pytest.mark.parametrize("member", ["ramp", "sin"])
def test_extension_fields_identical_with_band_maps(disk64_fine_reference, member):
    fn = dict(boundary_data(15, None))[member]
    out = []
    for g in disk64_fine_reference:
        tr = boundary_trace_from_function(g, fn)
        out.append(extend_boundary_data(tr, eps=max(0.1, required_eps(tr)), h=g.h))
    got, ref = out
    assert np.array_equal(got.cells, ref.cells) and np.array_equal(got.values, ref.values)
    assert (got.l1_ratio, got.grad_ratio) == (ref.l1_ratio, ref.grad_ratio)


def test_band_geometry_memory_guard():
    # dense mask and maps peak at 58 + 122 MiB here (823k cells x 256 edges)
    dom = regular_ngon(256)
    tracemalloc.start()
    try:
        dom.grid(1 / 512).distance_maps()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
