"""Spans around library calls, recorded from the benchmark's own files.

``Tracer.install`` replaces each target function with a wrapper at every
place a ``bvcontact`` module binds it: modules bind names at import time, so ``energy_F``
imported into ``cli`` is a different lookup site from ``grid.energy_F``.
Methods are wrapped on their class.  ``uninstall`` puts the originals back;
used as a context manager, a ``Tracer`` installs on entry and uninstalls on
exit.

Spans are kept in memory as ``Span`` records (name, start, end, parent
index, error type) and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

#: span name -> "module:qualname" of the wrapped function in bvcontact
TARGETS = {
    "solver.minimize_energy": "solver:minimize_energy",
    "solver._grad": "solver:_grad",
    "solver._grad_adjoint": "solver:_grad_adjoint",
    "solver._dual_step_area": "solver:_dual_step_area",
    "solver._dual_step_tv": "solver:_dual_step_tv",
    "solver._scaled_energy": "solver:_scaled_energy",
    "solver._ContactProx.__init__": "solver:_ContactProx.__init__",
    "solver._ContactProx.apply": "solver:_ContactProx.apply",
    "geometry.DomainGrid.__init__": "geometry:DomainGrid.__init__",
    "geometry.DomainGrid._build_boundary": "geometry:DomainGrid._build_boundary",
    "geometry.DomainGrid.distance_maps": "geometry:DomainGrid.distance_maps",
    "density.yosida_eval_many": "density:yosida_eval_many",
    "density._brute_force_yosida": "density:_brute_force_yosida",
    "density.lip_upper_approx_many": "density:lip_upper_approx_many",
    "grid.field_from_function": "grid:field_from_function",
    "grid.boundary_trace_from_function": "grid:boundary_trace_from_function",
    "grid.energy_F": "grid:energy_F",
    "grid.energy_H": "grid:energy_H",
    "grid.energy_capillarity": "grid:energy_capillarity",
    "grid.trace_extract": "grid:trace_extract",
    "grid.save_field": "grid:save_field",
    "extension.extend_boundary_data": "extension:extend_boundary_data",
    "extension.optimal_boundary_values": "extension:optimal_boundary_values",
    "relaxation.verify_representation": "relaxation:verify_representation",
    "relaxation.counterexample_energy": "relaxation:counterexample_energy",
    "cli.run_scenario": "cli:run_scenario",
    "cli.write_csv": "cli:write_csv",
}

MODULES = ("cli", "corpus", "density", "extension", "geometry", "grid",
           "relaxation", "solver")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into the span list, -1 for a root span
    error: str | None = None


class Tracer:
    """Records one span per wrapped call; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at each module-level binding and on its class,
        recording the lookup sites in ``sites``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"bvcontact.{m}") for m in MODULES]
        sites = []
        for name, where in TARGETS.items():
            mod_name, qual = where.split(":")
            owner = importlib.import_module(f"bvcontact.{mod_name}")
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            wrapper = self.wrap(name, fn)
            if cls_path:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                sites.append(f"{mod_name}.{qual}")
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__.split('.')[-1]}.{key}")
        self.sites = sorted(sites)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- span arithmetic ---------------------------------------------------------------------


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in kids]
        covered = _union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans):
    """name -> {"busy": s, "self": s, "calls": n, "errors": {type: n}}.

    busy is the time covered by spans of that name, counting a span nested
    inside another of the same name once."""
    selfs = self_times(spans)
    out = {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        e = out.setdefault(s.name, {"busy": 0.0, "self": 0.0, "calls": 0, "errors": {}})
        e["calls"] += 1
        e["self"] += own
        if s.error:
            e["errors"][s.error] = e["errors"].get(s.error, 0) + 1
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            e["busy"] += s.end - s.start
    return out


def root_coverage(spans):
    """Seconds covered by root spans (spans with no parent)."""
    return _union_length([(s.start, s.end) for s in spans if s.parent < 0])


def children_busy(spans, parent_name, child_names):
    """Seconds of direct children named in child_names under spans named
    parent_name."""
    return sum(s.end - s.start for s in spans
               if s.parent >= 0 and spans[s.parent].name == parent_name
               and s.name in child_names)
