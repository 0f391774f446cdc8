"""Cross-module invariants: trace bounds, compactness, ladder convergence."""

import math

import numpy as np

from bvcontact import density
from bvcontact.density import (YosidaContext, lip_upper_approx_many, step_density,
                               tabulated, yosida_eval_many)
from bvcontact.extension import compactness_bound, optimal_boundary_values, \
    recovery_sequence
from bvcontact.geometry import PolygonalDomain, unit_square
from bvcontact.grid import (field_from_function, l1_norm, trace_extract, tv_grid,
                            energy_F)
from bvcontact.relaxation import E2Family


def sawtooth_domain():
    # interior above a slope-1 sawtooth: the downward teeth are square corners
    verts = [[0, 0], [0.25, 0.25], [0.5, 0], [0.75, 0.25], [1, 0], [1, 1], [0, 1]]
    return PolygonalDomain(verts)


def test_graph_domain_trace_bound_near_sharp():
    # int of |Tr u| over the graph part <= sqrt(1 + s^2) TV(u) for fields
    # supported near a slope-s graph; the slab cut at a tooth attains it
    dom = sawtooth_domain()
    g = dom.grid(1 / 512)
    s = 1.0
    bound = math.sqrt(1 + s * s)
    h0 = 0.1

    def cutoff(X):
        return np.clip((X - 0.2) / 0.06, 0, 1) * np.clip((0.8 - X) / 0.06, 0, 1)

    u = field_from_function(g, lambda X, Y: cutoff(X) * (Y < h0))
    tr = trace_extract(u)
    graph_edges = {0, 1, 2, 3}
    on_graph = np.isin(tr.edge_id, list(graph_edges))
    graph_trace = float((tr.w[on_graph] * np.abs(tr.values[on_graph])).sum())
    tv = tv_grid(u)
    assert graph_trace <= bound * tv * 1.05
    assert graph_trace >= bound * tv * 0.75  # near-sharp at the tooth


def test_compactness_diagnostic_bounds_gradients():
    # along recovery sequences of an admissible pair, TV stays within the
    # energy-driven bound TV <= (E + ||c||_1 + sigma C |u|_1) / (sigma eps0)
    dom = unit_square()
    g = dom.grid(1 / 128)
    d = density.linear(-0.5)   # L sqrt(2) = 0.707 <= 1 - 2 eps0 for eps0 = 0.1
    ctx = YosidaContext(1.0)
    u = field_from_function(g, lambda X, Y: X - Y)
    p = optimal_boundary_values(u, d, ctx, eps=1e-3)
    fitted_C = 8.0
    for n in (4, 8, 16):
        un, _ = recovery_sequence(u, p, n)
        e = energy_F(un, d, 1.0).total
        cap = compactness_bound(e, d, dom, sigma=1.0, epsilon0=0.1,
                                l1_mass=l1_norm(un), fitted_C=fitted_C)
        assert tv_grid(un) <= cap


def test_transform_of_ladder_converges_pointwise():
    # tau_hat of tau_k decreases to tau_hat of tau at sampled points
    d = step_density()
    pgrid = np.linspace(-3, 3, 3001)
    ctx = YosidaContext(1.0, search_radius=4.0)
    samples = np.array([-1.5, -0.4, 0.3, 1.2])
    exact = np.where(samples > 0, -1.0, np.minimum(0.0, np.abs(samples) - 1.0))
    prev = None
    for k in (1, 4, 16, 64):
        tau_k = lip_upper_approx_many(d, k, (0.0, 0.0), pgrid)
        dk = tabulated(pgrid, tau_k, interp="linear")
        hat_k = yosida_eval_many(dk, ctx, (0.0, 0.0), samples, force_bruteforce=True)
        assert np.all(hat_k >= exact - 1e-6)
        if prev is not None:
            assert np.all(hat_k <= prev + 1e-6)
        prev = hat_k
    assert np.abs(prev - exact).max() <= 0.05


def test_e2_l1_convergence_decreasing():
    from bvcontact.grid import l1_distance
    fam = E2Family(2.0)
    h = 1 / 128
    limit = fam.limit_field(h)
    dists = [l1_distance(fam.member(n, h).realization, limit)
             for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_corner_wedge_energy_sign_tracks_admissibility():
    # the corner-jump increment 2 a (sigma sin(theta/2) + lam) changes sign
    # exactly where the corner admissibility product L q crosses sigma
    theta = math.pi / 2
    sigma = 1.0
    lam_star = -sigma * math.sin(theta / 2)
    for lam, negative in ((lam_star - 0.05, True), (lam_star + 0.05, False)):
        increment = 2.0 * (sigma * math.sin(theta / 2) + lam)
        assert (increment < 0) == negative
        # geometric check: L q <=> sigma with q = 1/sin(theta/2)
        assert (abs(lam) / math.sin(theta / 2) > sigma) == negative
