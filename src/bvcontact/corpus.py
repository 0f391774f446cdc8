"""Seeded corpora: random fields for property suites and trace-constant fits,
and the named boundary traces of the extension checks."""

from __future__ import annotations

import numpy as np

from .grid import GridField, boundary_trace_from_function, field_from_function
from .errors import LayerTooThin
from .extension import extend_boundary_data


def _fourier(grid, rng):
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    ph = rng.uniform(0, 2 * np.pi, size=(3, 3))

    def fn(X, Y):
        out = np.zeros_like(X)
        for i in range(3):
            for j in range(3):
                out += a[i, j] * np.sin((i + 1) * np.pi * X + ph[i, j]) \
                    * np.cos((j + 1) * np.pi * Y) + 0.2 * b[i, j]
        return out / 3.0
    return field_from_function(grid, fn)


def _constant(grid, rng):
    return field_from_function(grid, lambda X, Y: np.full_like(X, rng.uniform(-3, 3)))


def _halfplane(grid, rng):
    th = rng.uniform(0, 2 * np.pi)
    c = rng.uniform(-0.5, 0.5)
    amp = rng.uniform(0.5, 3.0)
    n = (np.cos(th), np.sin(th))
    x0 = grid.dom.vertices.mean(axis=0)
    return field_from_function(
        grid, lambda X, Y: amp * ((X - x0[0]) * n[0] + (Y - x0[1]) * n[1] < c))


def _disk_indicator(grid, rng):
    x0 = grid.dom.vertices.mean(axis=0) + rng.uniform(-0.4, 0.4, size=2)
    r = rng.uniform(0.1, 0.5)
    amp = rng.uniform(0.5, 2.0)
    return field_from_function(
        grid, lambda X, Y: amp * (np.hypot(X - x0[0], Y - x0[1]) < r))


def _cone(grid, rng):
    x0 = grid.dom.vertices.mean(axis=0) + rng.uniform(-0.3, 0.3, size=2)
    s = rng.uniform(-2, 2)
    return field_from_function(grid, lambda X, Y: s * np.hypot(X - x0[0], Y - x0[1]))


def _boundary_spike(grid, rng):
    # sharp bump centered on the boundary: stresses trace vs TV
    b = grid.boundary()
    j = rng.integers(0, len(b.s))
    x0, y0 = b.x[j]
    w = rng.uniform(4 * grid.h, 0.15)
    amp = rng.uniform(-4, 4)
    return field_from_function(
        grid, lambda X, Y: amp * np.exp(-((X - x0) ** 2 + (Y - y0) ** 2) / (2 * w * w)))


def _boundary_layer(grid, rng):
    k = rng.integers(1, 4)
    a = rng.normal(size=3)

    def gfn(x, y):
        return a[0] + a[1] * np.sin(k * np.pi * x) + a[2] * np.cos(k * np.pi * y)
    tr = boundary_trace_from_function(grid, gfn)
    eps = float(rng.uniform(0.1, 0.3))
    try:
        ext = extend_boundary_data(tr, eps=eps, h=grid.h)
    except LayerTooThin:
        return field_from_function(grid, gfn)
    vals = np.zeros(grid.mask.shape)
    vals.reshape(-1)[ext.cells] = ext.values
    return GridField.from_checked(grid, vals)


_MAKERS = (_fourier, _constant, _halfplane, _disk_indicator, _cone,
           _boundary_spike, _boundary_layer)


def random_fields(grid, n: int, seed: int):
    """n seeded random fields cycling through the corpus families."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(_MAKERS[i % len(_MAKERS)](grid, rng))
    return out


# Named boundary traces (x, y) -> g: constants, ramps, steps, oscillations,
# a spike and a near-singular bump.
_TRACES = (
    ("const", lambda x, y: np.ones_like(x)),
    ("minus2", lambda x, y: -2 * np.ones_like(x)),
    ("x", lambda x, y: x),
    ("ramp", lambda x, y: x - y),
    ("alt", lambda x, y: np.where(y < 1e-9, np.where(x < 0.5, 1.0, -1.0), 0.0)),
    ("step", lambda x, y: (x > 0.3).astype(float)),
    ("sin", lambda x, y: np.sin(2 * np.pi * (x + y))),
    ("sincos", lambda x, y: np.sin(4 * np.pi * x) * np.cos(2 * np.pi * y)),
    ("osc", lambda x, y: 0.5 + np.sin(6 * np.pi * x)),
    ("abssin", lambda x, y: np.abs(np.sin(3 * x + 2 * y))),
    ("spike", lambda x, y: np.exp(-40 * ((x - 0.5) ** 2 + y ** 2))),
    ("bump", lambda x, y: np.exp(-10 * ((x - 1) ** 2 + (y - 0.5) ** 2)) - 0.5),
    ("saw", lambda x, y: (3 * x) % 1.0),
    ("parab", lambda x, y: x * (1 - x) + y),
    ("pole", lambda x, y: 1.0 / (0.05 + (x - 0.2) ** 2 + y ** 2)),
)


def boundary_data(n: int, rng):
    """The first n members [(name, fn)] of the boundary-trace corpus: the
    named traces, then seeded Fourier traces fourier<k> (k the member's index),
    each drawing rng.normal(size=4) twice."""
    out = list(_TRACES[:n])
    while len(out) < n:
        a, b = rng.normal(size=4), rng.normal(size=4)
        out.append((f"fourier{len(out)}", lambda x, y, a=a, b=b: sum(
            a[j] * np.sin((j + 1) * np.pi * x) + b[j] * np.cos((j + 1) * np.pi * y)
            for j in range(4)) / 3))
    return out
