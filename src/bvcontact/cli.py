"""Experiment runner: scenario files in, machine-readable reports out.

Subcommands: yosida | qgeom | energy | counterexample | relax-verify |
extend-verify | solve.  Every run writes <out>/report.json embedding the
scenario hash, grid spacing, seed, and library version; sweep tasks add CSV
tables with a stable column order (and .dat mirrors for plotting).  Identical
scenario + seed gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, density as density_mod, geometry
from .density import YosidaContext, yosida_eval_many
from .errors import BVContactError, ParseError, SchemaError
from .extension import extend_boundary_data, required_eps
from .grid import (boundary_trace_from_function, constant_field, energy_F,
                   field_from_function, load_field, save_field)
from .relaxation import (counterexample_energy, detect_lsc_violation,
                         family_by_name, relaxed_energy, verify_representation)
from .solver import diagnostics, minimize_energy

FLOAT_FMT = "%.12g"

TASKS = ("yosida", "qgeom", "energy", "counterexample", "relax-verify",
         "extend-verify", "solve")

_FIELD_BUILDERS = {
    "zero": lambda g: constant_field(g, 0.0),
    "x1": lambda g: field_from_function(g, lambda X, Y: X),
    "x2": lambda g: field_from_function(g, lambda X, Y: Y),
    "cone": lambda g: field_from_function(g, lambda X, Y: np.hypot(X, Y)),
    "bump": lambda g: field_from_function(
        g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))),
}


# What each kind of SCHEMA value must be.  A runner receives a "float" as a
# float, a "count" as an int, "counts" as ints and every other kind as written.
_KINDS = {"float": "a finite number", "number": "a finite number", "count": "a whole number",
          "counts": "a non-empty list of whole numbers", "flag": "true or false",
          "enum": "one of", "text": "a non-empty string", "object": "a JSON object",
          "sweep": "[lo, hi, step] with lo <= hi and step > 0",
          "domain": '{"file": path} or one of', "field": 'const:<v>, {"file": path} or one of'}


class PerTask(dict):
    """A SCHEMA default that depends on the task (None for tasks not named)."""


# Every scenario key, at the top level ("") or in one task's params: (kind, range
# or allowed values, default, *the tasks that require it, "task:bulk" for one
# bulk of a task).  A range is an interval such as "(0, inf)"; a required flag
# must be true.
SCHEMA = {
    "": {"task": ("enum", TASKS, None, *TASKS),
         "domain": ("domain", tuple(geometry.BUILTIN_DOMAINS), "square"),
         "density": ("text", None, None, "yosida", "energy", "relax-verify"),
         "density_c": ("number", None, None), "density_L": ("number", None, None),
         "sigma": ("float", "(0, inf)", 1.0), "nu": ("number", None, None, "solve:capillarity"),
         "grid_h": ("number", "(0, inf)", PerTask({"energy": 1 / 256, "counterexample": 1 / 512,
                                                   "relax-verify": 1 / 128, "solve": 1 / 128,
                                                   "extend-verify": 1 / 512})),
         "seed": ("count", "[0, inf)", 0), "params": ("object", None, {}),
         "output_dir": ("text", None, None)},
    "yosida": {"p_min": ("number", None, -3.0), "p_max": ("number", None, 3.0),
               "n_points": ("count", "[1, inf)", 601), "force_bruteforce": ("flag", None, False)},
    "qgeom": {},
    "energy": {"field": ("field", tuple(_FIELD_BUILDERS), "zero"),
               "mode": ("enum", ("F", "H", "both"), "both")},
    "counterexample": {"family": ("enum", ("E1", "E2", "LOG1D"), "E1"),
                       "lam": ("number", None, -0.8), "lam_sweep": ("sweep", None, None),
                       "n_values": ("counts", "[2, inf)", [4, 8, 16, 32]),
                       "grid_check_n": ("count", "[1, inf)", None)},
    "relax-verify": {"field": ("field", tuple(_FIELD_BUILDERS), "zero"),
                     "budget": ("count", "[1, inf)", 64)},
    "extend-verify": {"eps": ("float", "(0, 1]", 0.1), "n_corpus": ("count", "[1, inf)", 20),
                      "kappa": ("float", "[0, inf)", 0.5)},
    "solve": {"bulk": ("enum", ("quadratic", "capillarity", "none"), "quadratic"),
              "iters": ("count", "[1, inf)", 2000), "tol": ("float", "[0, inf)", 1e-6),
              "beta": ("float", "[0, inf)", 1e-3), "step_scale": ("float", "[1e-06, 1e+06]", None),
              "f": ("field", tuple(_FIELD_BUILDERS), None),
              "allow_no_bulk": ("flag", None, False, "solve:none")},
}


def parse_density_spec(text: str, c=None, L=None):
    """Builtin names ('linear:<lam>', 'absolute:<lam>', 'quadratic') or an
    expression in the documented grammar over p, x1, x2."""
    if not text or not text.strip():
        raise ParseError("empty density spec", 0)
    head, _, tail = text.partition(":")
    head = head.strip()
    kw = {k: v for k, v in (("c", c), ("L", L)) if v is not None}
    if head in ("linear", "absolute"):
        try:
            lam = float(tail)
        except ValueError:
            raise ParseError(f"bad coefficient {tail!r} for {head}", len(head) + 1)
        return getattr(density_mod, head)(lam, **kw)
    if head == "quadratic" and not tail:
        return density_mod.quadratic(**kw)
    return density_mod.expression(text, c=c, L=L)


def validate_scenario(scenario: dict) -> dict:
    """Check every key the scenario gives against SCHEMA and return the
    scenario unchanged; run_scenario also requires the keys its task needs."""
    _resolve(scenario)
    return scenario


def _resolve(scenario) -> dict:
    """The task's values by key, checked, converted and defaulted by SCHEMA
    (None where a key is neither given nor defaulted)."""
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    task = _check("task", scenario.get("task"), *SCHEMA[""]["task"][:2])
    values = _walk(scenario, SCHEMA[""], "", task)
    return {**values, **_walk(values["params"], SCHEMA[task], "params.", task)}


def _walk(given, rows, where, task):
    unknown = sorted(set(given) - set(rows))
    if unknown:
        raise SchemaError(f"unknown params for {task}: {unknown}" if where
                          else f"unknown scenario keys {unknown}", location=where[:-1] or None)
    return {key: _check(where + key, given[key], kind, allowed) if key in given
            else default.get(task) if isinstance(default, PerTask) else default
            for key, (kind, allowed, default, *_) in rows.items()}


def _ok(v, kind, allowed):
    if kind in ("float", "number", "count"):
        interval = allowed or "(-inf, inf)"
        lo, hi = (float(s) for s in interval[1:-1].split(","))
        return (not isinstance(v, bool) and isinstance(v, (int, float))
                and abs(v) <= sys.float_info.max and (kind != "count" or float(v).is_integer())
                and (lo < v or interval[0] == "[" and v == lo)
                and (v < hi or interval[-1] == "]" and v == hi))
    if kind == "counts":
        return isinstance(v, list) and v != [] and all(_ok(x, "count", allowed) for x in v)
    if kind == "sweep":
        return (isinstance(v, list) and len(v) == 3 and all(_ok(x, "number", None) for x in v)
                and v[0] <= v[1] and v[2] > 0)
    if isinstance(v, dict):
        return kind == "object" or (kind in ("field", "domain") and set(v) == {"file"}
                                    and isinstance(v["file"], str))
    if kind == "field" and isinstance(v, str) and v.startswith("const:"):
        try:
            return _ok(float(v[6:]), "number", None)
        except ValueError:
            return False
    return (kind == "flag" and isinstance(v, bool)
            or kind == "text" and isinstance(v, str) and v.strip() != ""
            or kind in ("enum", "field", "domain") and isinstance(v, str) and v in allowed)


def _check(where, v, kind, allowed):
    """v as a runner receives it, or SchemaError at where."""
    if not _ok(v, kind, allowed):
        rng = f" in {allowed}" if isinstance(allowed, str) else f" {allowed}" if allowed else ""
        raise SchemaError(f"{where.rpartition('.')[2]} must be {_KINDS[kind]}{rng}, got {v!r}",
                          location=where)
    if kind == "counts":
        return [int(x) for x in v]
    return float(v) if kind == "float" else int(v) if kind == "count" else v


def _load_field_spec(spec, grid):
    """A field from a spec that passed _check."""
    if isinstance(spec, dict):
        return load_field(spec["file"], grid=grid)
    if spec.startswith("const:"):
        return constant_field(grid, float(spec[6:]))
    return _FIELD_BUILDERS[spec](grid)


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return FLOAT_FMT % x
    return str(x)


def write_csv(path, header, rows, dat=False):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    if dat:
        dat_lines = [" ".join(_fmt(v) for v in row[:2]) for row in rows]
        Path(path).with_suffix(".dat").write_text("\n".join(dat_lines) + "\n")


# -- task runners --------------------------------------------------------------------


def _task_yosida(v, dom, d, ctx, out, rng):
    ps = np.linspace(v["p_min"], v["p_max"], v["n_points"])
    x0 = tuple(dom.vertices[0])
    tau = d.eval_many(x0, ps)
    hat = yosida_eval_many(d, ctx, x0, ps, force_bruteforce=v["force_bruteforce"])
    rows = list(zip(ps, hat, tau))
    write_csv(out / "table.csv", ["p", "tau_hat", "tau"], rows, dat=True)
    return {"n_points": v["n_points"], "max_drop": float((tau - hat).max())}


def _task_qgeom(v, dom, d, ctx, out, rng):
    corners = [{"index": r.index, "theta": r.theta, "q": r.q,
                "wedge_slope": r.wedge_slope} for r in dom.corner_records]
    return {"Q": geometry.domain_Q(dom), "corners": corners,
            "n_corners": len(corners), "perimeter": dom.perimeter,
            "area": dom.area, "lipschitz_constant": dom.lipschitz_constant,
            "emmer_bound": 1.0 / math.sqrt(1.0 + dom.lipschitz_constant ** 2)}


def _task_energy(v, dom, d, ctx, out, rng):
    u = _load_field_spec(v["field"], dom.grid(v["grid_h"]))
    result = {}
    if v["mode"] in ("F", "both"):
        result["F"] = energy_F(u, d, ctx.sigma).to_dict()
    if v["mode"] in ("H", "both"):
        result["H"] = relaxed_energy(u, d, ctx, dom).to_dict()
    return result


def _task_counterexample(v, dom, d, ctx, out, rng):
    name, n_values, sweep = v["family"], v["n_values"], v["lam_sweep"]
    if name == "LOG1D":
        lams = [0.0]  # the 1-D family has no coefficient
    elif sweep is None:
        lams = [v["lam"]]
    else:  # [lo, lo, step] is [lo] also where hi + 1e-12 rounds to hi
        lams = list(np.arange(sweep[0], sweep[1] + 1e-12, sweep[2])) or [sweep[0]]
    rows = []
    for lam in lams:
        fam = (family_by_name(name) if name == "LOG1D"
               else family_by_name(name, lam=float(lam), sigma=ctx.sigma))
        rep = detect_lsc_violation(fam, budget=max(n_values))
        for n in n_values:
            rows.append((lam, n, fam.member_energy(n), rep.liminf_energy,
                         rep.limit_energy_F, rep.gap, rep.violated))
    write_csv(out / "sweep.csv",
              ["lambda", "n", "energy", "liminf", "limit_energy_F", "gap", "violated"],
              rows, dat=True)
    cat = counterexample_energy(fam, n_values=n_values, grid_check_n=v["grid_check_n"],
                                h=v["grid_h"])
    return {"families": name, "lambdas": [float(lam) for lam in lams],
            "last_catalog": {"per_n": cat.per_n,
                             "limit_of_sequence": cat.limit_of_sequence,
                             "energy_of_limit": _json_num(cat.energy_of_limit),
                             "grid_checks": {k: _json_num(x) for k, x in
                                             cat.grid_checks.items()}}}


def _json_num(v):
    return "inf" if isinstance(v, float) and math.isinf(v) else v


def _task_relax_verify(v, dom, d, ctx, out, rng):
    u = _load_field_spec(v["field"], dom.grid(v["grid_h"]))
    rep = verify_representation(u, d, ctx, dom, budget=v["budget"], seed=v["seed"])
    write_csv(out / "gaps.csv", ["upper_gap", "lower_gap", "H_value"],
              [(rep.upper_gap, rep.lower_gap, rep.H_value)])
    return {"upper_gap": rep.upper_gap, "lower_gap": rep.lower_gap,
            "H_value": rep.H_value, "upper_detail": rep.upper_detail,
            "lower_detail": rep.lower_detail}


def _extend_corpus(grid, n_members, rng):
    fns = [("const", lambda x, y: np.ones_like(x)),
           ("ramp", lambda x, y: x - y),
           ("alt", lambda x, y: np.where(y < 1e-9, np.where(x < 0.5, 1.0, -1.0), 0.0)),
           ("sin", lambda x, y: np.sin(2 * np.pi * (x + y)))]
    while len(fns) < n_members:
        k = len(fns)
        a = rng.normal(size=3)
        fns.append((f"fourier{k}", lambda x, y, a=a: a[0] * np.sin(np.pi * x)
                    + a[1] * np.cos(2 * np.pi * y) + a[2]))
    return fns[:n_members]


def _task_extend_verify(v, dom, d, ctx, out, rng):
    eps, kappa = v["eps"], v["kappa"]
    g = dom.grid(v["grid_h"])
    rows = []
    for name, fn in _extend_corpus(g, v["n_corpus"], rng):
        tr = boundary_trace_from_function(g, fn)
        # members whose adaptive layer would drop under 8 cells run at their
        # resolvability floor instead of failing the whole corpus; a floor
        # above eps = 1 raises LayerTooThin
        eps_eff = min(max(eps, required_eps(tr, g.h)), 1.0)
        res = extend_boundary_data(tr, eps=eps_eff, h=g.h, kappa=kappa)
        rows.append((name, res.l1_ratio, res.grad_ratio, res.layer_width,
                     res.boundary_l1, res.corner_overlap, eps_eff))
    write_csv(out / "ratios.csv",
              ["name", "l1_ratio", "grad_ratio", "delta", "boundary_l1",
               "corner_overlap", "eps_effective"], rows)
    worst_l1 = max(r[1] for r in rows)
    worst_grad = max(r[2] for r in rows)
    return {"eps": eps, "kappa": kappa, "worst_l1_ratio": worst_l1,
            "worst_grad_ratio": worst_grad, "n_corpus": len(rows),
            "max_eps_effective": max(r[6] for r in rows)}


def _task_solve(v, dom, d, ctx, out, rng):
    f = None if v["f"] is None else _load_field_spec(v["f"], dom.grid(v["grid_h"]))
    step = {} if v["step_scale"] is None else {"step_scale": v["step_scale"]}
    res = minimize_energy(
        dom, d=d, ctx=ctx, bulk=v["bulk"], f=f, nu=v["nu"], h=v["grid_h"],
        iters=v["iters"], tol=v["tol"], beta=v["beta"],
        allow_no_bulk=v["allow_no_bulk"], **step)
    save_field(res.u, out / "field")
    diag = diagnostics(res.state) if res.state.iterations >= 2 else {}
    if diag:
        rows = list(zip(range(len(diag["energy_curve"])), diag["energy_curve"],
                        diag["residual_curve"]))
        write_csv(out / "diagnostics.csv", ["iter", "energy", "residual"], rows)
    return {"residual": res.residual, "iterations": res.state.iterations,
            "energy_report": res.report.to_dict(),
            "dual_feasibility_max": res.state.dual_feasibility_max,
            "dual_bound": res.state.dual_bound}


_RUNNERS = {"yosida": _task_yosida, "qgeom": _task_qgeom, "energy": _task_energy,
            "counterexample": _task_counterexample, "relax-verify": _task_relax_verify,
            "extend-verify": _task_extend_verify, "solve": _task_solve}


def run_scenario(scenario: dict, out_dir) -> dict:
    """Validate, dispatch, and write report.json; returns the report dict."""
    v = _resolve(scenario)
    task, needs = v["task"], {v["task"], f"{v['task']}:{v.get('bulk')}"}
    for where, rows in (("", SCHEMA[""]), ("params.", SCHEMA[task])):
        for key, (_, _, _, *required) in rows.items():
            if (v[key] is None or v[key] is False) and needs & set(required):
                raise SchemaError(f"{key} is required by {', '.join(required)}",
                                  location=where + key)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dom = (geometry.load_domain(v["domain"]["file"]) if isinstance(v["domain"], dict)
           else geometry.builtin_domain(v["domain"]))
    ctx = YosidaContext(sigma=v["sigma"])
    d = None if v["density"] is None else parse_density_spec(
        v["density"], c=v["density_c"], L=v["density_L"])
    result = _RUNNERS[task](v, dom, d, ctx, out, np.random.default_rng(v["seed"]))
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":")).encode()
    report = {"task": task, "scenario_hash": hashlib.sha256(blob).hexdigest()[:16],
              "grid_h": scenario.get("grid_h"), "seed": v["seed"], "version": __version__,
              "result": result}
    (out / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True,
                                                default=_fmt) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvcontact",
        description="contact-energy experiments: transforms, trace geometry, "
                    "counterexamples, extension checks, and solves")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="scenario JSON file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=float, default=None, help="grid spacing h")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--domain", default=None,
                        help="builtin domain name or JSON file path")
    parser.add_argument("--density", default=None,
                        help="density spec, e.g. 'linear:-0.8' or '0.5*abs(p)-1'")
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--nu", type=float, default=None)
    args = parser.parse_args(argv)

    scenario = {}
    if args.config:
        try:
            scenario = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            print(json.dumps({"error": f"invalid scenario JSON: {e.msg}",
                              "line": e.lineno}), file=sys.stderr)
            return 2
        except (OSError, UnicodeDecodeError) as e:
            print(json.dumps({"error": f"cannot read the scenario: {e}",
                              "type": type(e).__name__}), file=sys.stderr)
            return 2
    if not isinstance(scenario, dict) or scenario.get("task") not in (None, args.task):
        print(json.dumps({"error": "the scenario must be a JSON object whose task, if "
                                   f"given, is the command {args.task!r}"}), file=sys.stderr)
        return 2
    domain = args.domain and (args.domain if not args.domain.endswith(".json")
                              else {"file": args.domain})
    flags = {"task": args.task, "seed": args.seed, "grid_h": args.grid, "domain": domain,
             "density": args.density, "sigma": args.sigma, "nu": args.nu}
    scenario.update({k: x for k, x in flags.items() if x is not None})
    out_dir = args.out == "out" and scenario.get("output_dir") or args.out

    try:
        run_scenario(scenario, out_dir)
    except (BVContactError, ValueError, OSError) as e:
        payload = {"error": str(e), "type": type(e).__name__}
        payload.update({k: getattr(e, k) for k in ("offset", "location") if hasattr(e, k)})
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
