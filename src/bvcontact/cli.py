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

_COMMON_KEYS = {"task", "domain", "density", "density_c", "density_L", "sigma",
                "epsilon0", "nu", "grid_h", "seed", "params", "output_dir"}

_PARAM_KEYS = {
    "yosida": {"p_min", "p_max", "n_points", "force_bruteforce"},
    "qgeom": set(),
    "energy": {"field", "mode"},
    "counterexample": {"family", "lam", "lam_sweep", "n_values", "grid_check_n"},
    "relax-verify": {"field", "budget"},
    "extend-verify": {"eps", "n_corpus", "kappa"},
    "solve": {"bulk", "iters", "tol", "beta", "step_scale", "f", "allow_no_bulk"},
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


def _scenario_hash(scenario: dict) -> str:
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def validate_scenario(scenario: dict) -> dict:
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    unknown = set(scenario) - _COMMON_KEYS
    if unknown:
        raise SchemaError(f"unknown scenario keys {sorted(unknown)}")
    task = scenario.get("task")
    if task not in TASKS:
        raise SchemaError(f"task must be one of {TASKS}, got {task!r}")
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object", location="params")
    bad = set(params) - _PARAM_KEYS[task]
    if bad:
        raise SchemaError(f"unknown params for {task}: {sorted(bad)}", location="params")
    for key in ("sigma", "epsilon0", "nu", "grid_h"):
        if key in scenario and not isinstance(scenario[key], (int, float)):
            raise SchemaError(f"{key} must be a number", location=key)
    if "seed" in scenario and not isinstance(scenario["seed"], int):
        raise SchemaError("seed must be an integer", location="seed")
    iters, beta = params.get("iters", 1), params.get("beta", 0.0)
    whole = isinstance(iters, int) or isinstance(iters, float) and iters.is_integer()
    if isinstance(iters, bool) or not whole or iters < 1:
        raise SchemaError(f"iters must be a whole number >= 1, got {iters!r}",
                          location="params.iters")
    if (isinstance(beta, bool) or not isinstance(beta, (int, float))
            or not 0 <= beta <= sys.float_info.max):
        raise SchemaError(f"beta must be a finite number >= 0, got {beta!r}",
                          location="params.beta")
    return scenario


def _load_domain_spec(spec):
    if spec is None:
        return geometry.unit_square()
    if isinstance(spec, str):
        return geometry.builtin_domain(spec)
    if isinstance(spec, dict):
        if "file" in spec:
            return geometry.load_domain(spec["file"])
        raise SchemaError("domain object must carry a 'file' key")
    raise SchemaError("domain must be a builtin name or {'file': path}")


_FIELD_BUILDERS = {
    "zero": lambda g: constant_field(g, 0.0),
    "x1": lambda g: field_from_function(g, lambda X, Y: X),
    "x2": lambda g: field_from_function(g, lambda X, Y: Y),
    "cone": lambda g: field_from_function(g, lambda X, Y: np.hypot(X, Y)),
    "bump": lambda g: field_from_function(
        g, lambda X, Y: np.exp(-8 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))),
}


def _load_field_spec(spec, grid):
    if spec is None:
        return constant_field(grid, 0.0)
    if isinstance(spec, dict):
        if "file" in spec:
            return load_field(spec["file"], grid=grid)
        raise SchemaError("field object must carry a 'file' key")
    if isinstance(spec, str):
        if spec.startswith("const:"):
            return constant_field(grid, float(spec.split(":", 1)[1]))
        if spec in _FIELD_BUILDERS:
            return _FIELD_BUILDERS[spec](grid)
    raise SchemaError(f"unknown field spec {spec!r}; use const:<v>, "
                      f"{sorted(_FIELD_BUILDERS)}, or {{'file': base}}")


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


def _task_yosida(scn, dom, d, ctx, out, rng):
    p = scn.get("params", {})
    lo, hi = p.get("p_min", -3.0), p.get("p_max", 3.0)
    n = int(p.get("n_points", 601))
    force = bool(p.get("force_bruteforce", False))
    ps = np.linspace(lo, hi, n)
    x0 = tuple(dom.vertices[0])
    tau = d.eval_many(x0, ps)
    hat = yosida_eval_many(d, ctx, x0, ps, force_bruteforce=force)
    rows = list(zip(ps, hat, tau))
    write_csv(out / "table.csv", ["p", "tau_hat", "tau"], rows, dat=True)
    return {"n_points": n, "max_drop": float((tau - hat).max())}


def _task_qgeom(scn, dom, d, ctx, out, rng):
    corners = [{"index": r.index, "theta": r.theta, "q": r.q,
                "wedge_slope": r.wedge_slope} for r in dom.corner_records]
    return {"Q": geometry.domain_Q(dom), "corners": corners,
            "n_corners": len(corners), "perimeter": dom.perimeter,
            "area": dom.area, "lipschitz_constant": dom.lipschitz_constant,
            "emmer_bound": 1.0 / math.sqrt(1.0 + dom.lipschitz_constant ** 2)}


def _task_energy(scn, dom, d, ctx, out, rng):
    g = dom.grid(scn.get("grid_h", 1 / 256))
    u = _load_field_spec(scn.get("params", {}).get("field"), g)
    mode = scn.get("params", {}).get("mode", "both")
    result = {}
    if mode in ("F", "both"):
        result["F"] = energy_F(u, d, ctx.sigma).to_dict()
    if mode in ("H", "both"):
        result["H"] = relaxed_energy(u, d, ctx, dom).to_dict()
    return result


def _task_counterexample(scn, dom, d, ctx, out, rng):
    p = scn.get("params", {})
    fam_name = p.get("family", "E1")
    n_values = p.get("n_values", [4, 8, 16, 32])
    sweep = p.get("lam_sweep")
    if fam_name.upper() == "LOG1D":
        lams = [0.0]  # the 1-D family has no coefficient
    elif sweep is None:
        lams = [p.get("lam", -0.8)]
    else:
        lams = list(np.arange(sweep[0], sweep[1] + 1e-12, sweep[2]))
    rows = []
    for lam in lams:
        fam = (family_by_name(fam_name) if fam_name.upper() == "LOG1D"
               else family_by_name(fam_name, lam=float(lam), sigma=ctx.sigma))
        rep = detect_lsc_violation(fam, budget=max(n_values))
        for n in n_values:
            rows.append((lam, n, fam.member_energy(n), rep.liminf_energy,
                         rep.limit_energy_F, rep.gap, rep.violated))
    write_csv(out / "sweep.csv",
              ["lambda", "n", "energy", "liminf", "limit_energy_F", "gap", "violated"],
              rows, dat=True)
    check = p.get("grid_check_n")
    last_fam = fam
    cat = counterexample_energy(last_fam, n_values=n_values, grid_check_n=check,
                                h=scn.get("grid_h", 1 / 512))
    return {"families": fam_name, "lambdas": [float(v) for v in lams],
            "last_catalog": {"per_n": cat.per_n,
                             "limit_of_sequence": cat.limit_of_sequence,
                             "energy_of_limit": _json_num(cat.energy_of_limit),
                             "grid_checks": {k: _json_num(v) for k, v in
                                             cat.grid_checks.items()}}}


def _json_num(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _task_relax_verify(scn, dom, d, ctx, out, rng):
    g = dom.grid(scn.get("grid_h", 1 / 128))
    p = scn.get("params", {})
    u = _load_field_spec(p.get("field"), g)
    rep = verify_representation(u, d, ctx, dom, budget=int(p.get("budget", 64)),
                                seed=int(scn.get("seed", 0)))
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


def _task_extend_verify(scn, dom, d, ctx, out, rng):
    p = scn.get("params", {})
    eps = float(p.get("eps", 0.1))
    kappa = float(p.get("kappa", 0.5))
    g = dom.grid(scn.get("grid_h", 1 / 512))
    rows = []
    for name, fn in _extend_corpus(g, int(p.get("n_corpus", 20)), rng):
        tr = boundary_trace_from_function(g, fn)
        # members whose adaptive layer would drop under 8 cells run at their
        # resolvability floor instead of failing the whole corpus
        eps_eff = max(eps, required_eps(tr, g.h))
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


def _task_solve(scn, dom, d, ctx, out, rng):
    p = scn.get("params", {})
    g_h = scn.get("grid_h", 1 / 128)
    f = None
    if p.get("f") is not None:
        f = _load_field_spec(p["f"], dom.grid(g_h))
    res = minimize_energy(
        dom, d=d, ctx=ctx, bulk=p.get("bulk", "quadratic"), f=f,
        nu=scn.get("nu"), h=g_h, iters=int(p.get("iters", 2000)),
        tol=float(p.get("tol", 1e-6)), beta=float(p.get("beta", 1e-3)),
        step_scale=float(p.get("step_scale", 8.0)),
        allow_no_bulk=bool(p.get("allow_no_bulk", False)))
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


_RUNNERS = {
    "yosida": _task_yosida,
    "qgeom": _task_qgeom,
    "energy": _task_energy,
    "counterexample": _task_counterexample,
    "relax-verify": _task_relax_verify,
    "extend-verify": _task_extend_verify,
    "solve": _task_solve,
}


def run_scenario(scenario: dict, out_dir) -> dict:
    """Validate, dispatch, and write report.json; returns the report dict."""
    scenario = validate_scenario(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dom = _load_domain_spec(scenario.get("domain"))
    sigma = float(scenario.get("sigma", 1.0))
    ctx = YosidaContext(sigma=sigma)
    d = None
    if scenario.get("density") is not None:
        d = parse_density_spec(scenario["density"], c=scenario.get("density_c"),
                               L=scenario.get("density_L"))
    rng = np.random.default_rng(int(scenario.get("seed", 0)))
    result = _RUNNERS[scenario["task"]](scenario, dom, d, ctx, out, rng)
    report = {
        "task": scenario["task"],
        "scenario_hash": _scenario_hash(scenario),
        "grid_h": scenario.get("grid_h"),
        "seed": int(scenario.get("seed", 0)),
        "version": __version__,
        "result": result,
    }
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
            scenario = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            print(json.dumps({"error": f"invalid scenario JSON: {e.msg}",
                              "line": e.lineno}), file=sys.stderr)
            return 2
    if scenario.get("task") is None:
        scenario["task"] = args.task
    elif scenario["task"] != args.task:
        print(json.dumps({"error": f"scenario task {scenario['task']!r} does not "
                                   f"match command {args.task!r}"}), file=sys.stderr)
        return 2
    out_dir = args.out
    if args.out == "out" and scenario.get("output_dir"):
        out_dir = scenario["output_dir"]
    if args.seed is not None:
        scenario["seed"] = args.seed
    if args.grid is not None:
        scenario["grid_h"] = args.grid
    if args.domain is not None:
        scenario["domain"] = (args.domain if not args.domain.endswith(".json")
                              else {"file": args.domain})
    if args.density is not None:
        scenario["density"] = args.density
    if args.sigma is not None:
        scenario["sigma"] = args.sigma
    if args.nu is not None:
        scenario["nu"] = args.nu

    try:
        run_scenario(scenario, out_dir)
    except (BVContactError, ValueError) as e:
        payload = {"error": str(e), "type": type(e).__name__}
        if isinstance(e, ParseError):
            payload["offset"] = e.offset
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
