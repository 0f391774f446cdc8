"""The benchmark's workloads: operations, their inputs and their checks.

Every workload is a list of operations run in order.  Scenario operations go
through ``bvcontact.cli.run_scenario``; the criterion-10 ladder has no CLI
task and calls the public ``density`` API instead.  Each check is a pure
function of the outputs read back from disk (or returned, for the ladder),
and returns a list of failure messages; an empty list means the output is
correct.

Library calls go through module attributes (``density.yosida_eval_many``,
not a name bound at import) so that the traced run sees them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bvcontact import cli, density, geometry, grid

WORKLOADS = ("capillarity", "contact-table", "desk-study")

TWO_WELL = "2*min(abs(p-1), abs(p+1))"
TABLE_DENSITY = "p*p + 0.5*abs(p-0.25)"
LADDER_KS = (1, 4, 16, 64)
LADDER_H = 1 / 128


@dataclass
class Op:
    """One operation of a workload.

    ``scenario`` ops run through ``cli.run_scenario`` and their check gets
    the report read back from disk and the output directory; ``call`` ops
    run ``call()`` and pass its return value to the check.
    ``known_defect`` names a ``BVContactError`` subclass that the operation
    raises at this commit for a reason recorded in the benchmark's README;
    such a raise is reported as a known defect, not as a new failure.
    """

    name: str
    sizes: dict
    scenario: dict | None = None
    call: object = None
    check: object = None
    known_defect: str | None = None
    details: object = None          # (report, out_dir) -> dict of raw values to record


@dataclass
class OpResult:
    name: str
    sizes: dict
    seconds: float
    outcome: str                    # "ok", "failed" or "known_defect"
    messages: list = field(default_factory=list)
    warnings: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    bytes_written: int = 0


# -- reading outputs back ---------------------------------------------------------------


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# -- checks -----------------------------------------------------------------------------


def check_capillarity(report: dict, nu: float = 0.5) -> list[str]:
    """Criterion 09: energy at most the best constant + 1e-3, residual below
    1e-6 within the 5000-iteration budget, exact dual feasibility."""
    r = report["result"]
    bad = []
    oracle = 1.0 - 4.0 * nu * nu
    total = r["energy_report"]["total"]
    if not total <= oracle + 1e-3:
        bad.append(f"energy {total!r} above best constant {oracle} + 1e-3")
    if not r["residual"] < 1e-6:
        bad.append(f"residual {r['residual']!r} not below 1e-6")
    if not r["iterations"] <= 5000:
        bad.append(f"{r['iterations']} iterations exceed the budget 5000")
    bad += _check_dual(r)
    return bad


def check_contact_table(report: dict) -> list[str]:
    """Dual feasibility and the exact energy decomposition of the report."""
    r = report["result"]
    bad = _check_dual(r)
    e = r["energy_report"]
    parts = e["tv_term"] + e["contact_term"] + e["bulk_term"]
    if parts != e["total"]:
        bad.append(f"tv + contact + bulk = {parts!r} != total {e['total']!r}")
    if not math.isfinite(e["total"]):
        bad.append(f"energy {e['total']!r} is not finite")
    return bad


def _check_dual(r: dict) -> list[str]:
    if not r["dual_feasibility_max"] <= r["dual_bound"] + 1e-12:
        return [f"dual feasibility {r['dual_feasibility_max']!r} exceeds bound "
                f"{r['dual_bound']!r} + 1e-12"]
    return []


def _lam_sweep(lo, hi, step):
    # the CLI's own sweep, so expected values are formatted from the same floats
    return list(np.arange(lo, hi + 1e-12, step))


def check_e1(report: dict, sweep: list[dict], lams) -> list[str]:
    """Criterion 02: member energies sqrt(2) + 2 lam for every n, violation
    iff lam < -sqrt(2)/2, and the grid check within 3% of the closed form."""
    return (_check_sweep("E1", sweep, lams,
                         lambda lam, n: math.sqrt(2.0) + 2.0 * lam,
                         lambda lam: lam < -math.sqrt(2.0) / 2.0)
            + _check_grid_check(report, rel_tol=0.03))


def check_e2(report: dict, sweep: list[dict], lams) -> list[str]:
    """Criterion 03: closed-form member energies, violation iff lam > 1, and
    the grid check within 5% of the closed form."""
    def energy(lam, n):
        r = (n - 1.0) / n
        return math.pi * r * r + (n - 1.0) * math.pi * (1.0 - r * r)
    return (_check_sweep("E2", sweep, lams, energy, lambda lam: lam > 1.0 + 1e-9)
            + _check_grid_check(report, rel_tol=0.05))


def _check_sweep(family, sweep, lams, energy, violated) -> list[str]:
    """Every row of sweep.csv against the closed form, compared at the CSV's
    %.12g precision."""
    fmt = cli.FLOAT_FMT
    by_text = {fmt % lam: lam for lam in lams}
    got = {row["lambda"] for row in sweep}
    bad = []
    if got != set(by_text):
        bad.append(f"{family} sweep covers lambdas {sorted(got)}, want {sorted(by_text)}")
    for row in sweep:
        lam = by_text.get(row["lambda"])
        if lam is None:
            continue
        want = fmt % energy(lam, int(row["n"]))
        if row["energy"] != want:
            bad.append(f"{family} energy {row['energy']} at lambda {row['lambda']}, "
                       f"n {row['n']}; want {want}")
        if row["violated"] != ("1" if violated(lam) else "0"):
            bad.append(f"{family} violated flag {row['violated']} at lambda "
                       f"{row['lambda']}")
    return bad


def _check_grid_check(report: dict, rel_tol: float) -> list[str]:
    checks = report["result"]["last_catalog"]["grid_checks"]
    if not checks:
        return ["grid check missing from the catalog"]
    closed = checks["closed_form"]
    rel = abs(checks["grid_mode_total"] - closed) / abs(closed)
    if not rel <= rel_tol:
        return [f"grid check {checks['grid_mode_total']!r} is {rel:.3%} from the "
                f"closed form {closed!r} (limit {rel_tol:.0%})"]
    return []


def check_extension(report: dict, ratios: list[dict], n_corpus: int) -> list[str]:
    """Criterion 06 per member, at the member's effective eps: mass ratio at
    most 1.05 eps, gradient ratio at most 1 + eps + 0.15."""
    bad = []
    if len(ratios) != n_corpus or report["result"]["n_corpus"] != n_corpus:
        bad.append(f"{len(ratios)} corpus rows, want {n_corpus}")
    for row in ratios:
        eps = float(row["eps_effective"])
        l1, gr = float(row["l1_ratio"]), float(row["grad_ratio"])
        if not l1 <= 1.05 * eps:
            bad.append(f"{row['name']}: l1_ratio {l1} > 1.05 * eps {eps}")
        if not gr <= 1.0 + eps + 0.15:
            bad.append(f"{row['name']}: grad_ratio {gr} > 1 + eps {eps} + 0.15")
    return bad


def check_relax(report: dict) -> list[str]:
    """Criterion 07's one-sided bounds: upper_gap <= 0.05 (1 + |H|) and
    lower_gap >= -0.05 (1 + |H|)."""
    r = report["result"]
    scale = 1.0 + abs(r["H_value"])
    bad = []
    if not r["upper_gap"] <= 0.05 * scale:
        bad.append(f"upper_gap {r['upper_gap']!r} > 0.05 * {scale!r}")
    if not r["lower_gap"] >= -0.05 * scale:
        bad.append(f"lower_gap {r['lower_gap']!r} < -0.05 * {scale!r}")
    return bad


def two_well_hat(p):
    """Closed-form sigma = 1 transform of 2 min(|p-1|, |p+1|): the distance
    to the wells, min(|p-1|, |p+1|)."""
    p = np.asarray(p, dtype=float)
    return np.minimum(np.abs(p - 1.0), np.abs(p + 1.0))


def yosida_error(table: list[dict]) -> float:
    """Largest distance of tau_hat from the closed-form two-well transform."""
    p = np.array([float(r["p"]) for r in table])
    hat = np.array([float(r["tau_hat"]) for r in table])
    return float(np.abs(hat - two_well_hat(p)).max(initial=0.0))


def check_yosida(table: list[dict], n_points: int, q_step: float) -> list[str]:
    """tau_hat <= tau at every point and within one q-grid step of the
    closed-form transform of the two-well density."""
    bad = []
    if len(table) != n_points:
        bad.append(f"{len(table)} table rows, want {n_points}")
    p = np.array([float(r["p"]) for r in table])
    hat = np.array([float(r["tau_hat"]) for r in table])
    tau = np.array([float(r["tau"]) for r in table])
    if np.any(hat > tau):
        i = int(np.argmax(hat - tau))
        bad.append(f"tau_hat {hat[i]!r} > tau {tau[i]!r} at p = {p[i]!r}")
    err = np.abs(hat - two_well_hat(p))
    if err.size and not err.max() <= q_step:
        i = int(np.argmax(err))
        bad.append(f"tau_hat is {err[i]:.3g} from the closed form at p = {p[i]!r}, "
                   f"beyond the q-grid step {q_step:.3g}")
    return bad


def check_ladder(res: dict) -> list[str]:
    """Criterion 10: tau_k >= tau, decreasing in k, |tau_k - tau| <= 2/k where
    k |p| >= 1; transformed trace integrals decrease in k, stay above the
    exact integral, and are within 1e-2 of it at k = 64."""
    bad = []
    tau = res["tau"]
    prev = None
    for k in LADDER_KS:
        vals = res["tau_k"][k]
        if not np.all(vals >= tau - 1e-9):
            bad.append(f"tau_{k} drops below tau")
        if prev is not None and not np.all(vals <= prev + 1e-9):
            bad.append(f"tau_{k} is not below the previous rung")
        prev = vals
        far = np.abs(res["p"]) * k >= 1.0
        gap = float(np.abs(vals[far] - tau[far]).max())
        if not gap <= 2.0 / k + 1e-6:
            bad.append(f"|tau_{k} - tau| = {gap:.3g} > 2/{k} away from the jump")
    for name, ints in res["integrals"].items():
        exact = res["exact"][name]
        prev_int = math.inf
        for k in LADDER_KS:
            if not ints[k] <= prev_int + 1e-6:
                bad.append(f"{name}: integral rises at k = {k}")
            if not ints[k] >= exact - 1e-6:
                bad.append(f"{name}: integral {ints[k]!r} below the limit {exact!r}")
            prev_int = ints[k]
        if not abs(ints[LADDER_KS[-1]] - exact) <= 1e-2:
            bad.append(f"{name}: k = 64 integral {ints[LADDER_KS[-1]]!r} not within "
                       f"1e-2 of {exact!r}")
    return bad


# -- the criterion-10 ladder through the public density API -----------------------


def _step_hat(p):
    # closed form of the transformed step density (sigma = 1)
    return np.where(p > 0, -1.0, np.minimum(0.0, np.abs(p) - 1.0))


def _ladder_fields(g):
    return {
        "x1+0.2": grid.field_from_function(g, lambda X, Y: X + 0.2),
        "const0.5": grid.constant_field(g, 0.5),
        "cone": grid.field_from_function(
            g, lambda X, Y: np.hypot(X - 0.5, Y - 0.5) + 0.1),
        "1.2-x2": grid.field_from_function(g, lambda X, Y: 1.2 - Y),
    }


def run_ladder() -> dict:
    d = density.step_density()
    x0 = (0.0, 0.0)
    traces = {name: grid.trace_extract(u)
              for name, u in _ladder_fields(geometry.unit_square().grid(LADDER_H)).items()}
    ctx = density.YosidaContext(1.0, search_radius=4.0)
    res = {"tau_k": {}, "integrals": {n: {} for n in traces},
           "exact": {n: float((tr.w * _step_hat(tr.values)).sum())
                     for n, tr in traces.items()}}
    base = np.linspace(-3.0, 3.0, 4801)
    for k in LADDER_KS:
        pgrid = np.unique(np.concatenate([base, [1.0 / k]]))
        tau_k = density.lip_upper_approx_many(d, k, x0, pgrid)
        # every rung is compared on the shared base nodes
        res["tau_k"][k] = np.interp(base, pgrid, tau_k)
        dk = density.tabulated(pgrid, tau_k, interp="linear")
        for name, tr in traces.items():
            hat_k = density.yosida_eval_many(dk, ctx, x0, tr.values,
                                             force_bruteforce=True)
            res["integrals"][name][k] = float((tr.w * hat_k).sum())
    res["p"] = base
    res["tau"] = d.eval_many(x0, base)
    return res


# -- workload definitions ----------------------------------------------------------------


def _extend_op(name, domain, h, seed, known_defect=None):
    n = 20
    scn = {"task": "extend-verify", "domain": domain, "grid_h": h, "seed": seed,
           "params": {"eps": 0.1, "n_corpus": n, "kappa": 0.5}}
    return Op(name, {"h": h, "members": n, "eps": 0.1}, scenario=scn,
              check=lambda rep, out: check_extension(rep, read_csv(out / "ratios.csv"), n),
              known_defect=known_defect)


def _relax_op(name, domain, dens, c, L, field_name, seed):
    scn = {"task": "relax-verify", "domain": domain, "density": dens,
           "density_c": c, "density_L": L, "sigma": 1.0, "grid_h": 1 / 256,
           "seed": seed, "params": {"field": field_name, "budget": 64}}
    return Op(name, {"h": 1 / 256, "budget": 64}, scenario=scn,
              check=lambda rep, out: check_relax(rep),
              details=lambda rep, out: {k: rep["result"][k]
                                        for k in ("upper_gap", "lower_gap", "H_value")})


def _yosida_q_step(p_min, p_max):
    # one shared q-grid: step R / 2000 with R the largest search radius
    d = density.expression(TWO_WELL, c=0.0, L=0.0)
    radius = max(density.yosida_radius(d, 1.0, None, p) for p in (p_min, p_max))
    return radius / 2000.0


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one workload; ``seed`` goes to every scenario."""
    if workload == "capillarity":
        scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 128,
               "seed": seed,
               "params": {"bulk": "capillarity", "iters": 5000, "tol": 1e-6}}
        return [Op("capillarity-solve", {"h": 1 / 128, "max_iterations": 5000},
                   scenario=scn, check=lambda rep, out: check_capillarity(rep),
                   details=_solve_details)]
    if workload == "contact-table":
        scn = {"task": "solve", "domain": "square", "density": TABLE_DENSITY,
               "density_c": 0.0, "density_L": 0.0, "sigma": 1.0,
               "grid_h": 1 / 128, "seed": seed,
               "params": {"bulk": "quadratic", "f": "bump", "iters": 300, "tol": 0.0}}
        return [Op("table-solve", {"h": 1 / 128, "max_iterations": 300,
                                   "prox_nodes": 4001},
                   scenario=scn, check=lambda rep, out: check_contact_table(rep),
                   details=_solve_details)]
    if workload == "desk-study":
        return _desk_study(seed)
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def _solve_details(rep, out):
    r = rep["result"]
    return {"iterations": r["iterations"], "residual": r["residual"],
            "energy": r["energy_report"]["total"]}


def _desk_study(seed: int) -> list[Op]:
    e1_lams = _lam_sweep(-1.0, 0.0, 0.05)
    e1 = {"task": "counterexample", "domain": "square", "density": "linear:-0.8",
          "sigma": 1.0, "seed": seed, "grid_h": 1 / 512,
          "params": {"family": "E1", "lam_sweep": [-1.0, 0.0, 0.05],
                     "n_values": [4, 8, 16, 32], "grid_check_n": 8}}
    e2_lams = _lam_sweep(0.9, 1.1, 0.1)
    e2 = {"task": "counterexample", "domain": "disk256", "sigma": 1.0,
          "seed": seed, "grid_h": 1 / 256,
          "params": {"family": "E2", "lam_sweep": [0.9, 1.1, 0.1],
                     "n_values": [4, 8, 16, 32], "grid_check_n": 8}}
    n_points = 4001
    yos = {"task": "yosida", "domain": "square", "density": TWO_WELL,
           "density_c": 0.0, "density_L": 0.0, "sigma": 1.0, "seed": seed,
           "params": {"p_min": -3.0, "p_max": 3.0, "n_points": n_points,
                      "force_bruteforce": True}}
    q_step = _yosida_q_step(-3.0, 3.0)
    return [
        Op("e1-threshold-scan",
           {"h": 1 / 512, "lambdas": len(e1_lams), "grid_check_n": 8}, scenario=e1,
           check=lambda rep, out: check_e1(rep, read_csv(out / "sweep.csv"), e1_lams)),
        Op("e2-sweep", {"h": 1 / 256, "lambdas": len(e2_lams), "grid_check_n": 8},
           scenario=e2,
           check=lambda rep, out: check_e2(rep, read_csv(out / "sweep.csv"), e2_lams)),
        _extend_op("extend-disk64", "disk64", 1 / 384, seed),
        _extend_op("extend-square", "square", 1 / 512, seed),
        # raises LayerTooThin at every h >= 1/652: the layer width is capped at
        # half the shortest edge, and required_eps ignores that cap
        _extend_op("extend-disk256", "disk256", 1 / 128, seed,
                   known_defect="LayerTooThin"),
        _relax_op("relax-square-two-well", "square", TWO_WELL, 0.0, 0.0, "bump", seed),
        _relax_op("relax-lshape-x1", "lshape", "abs(p) - 0.2*x1*x1", 0.2, 0.0,
                  "x1", seed),
        Op("yosida-two-well", {"points": n_points, "q_step": q_step}, scenario=yos,
           check=lambda rep, out: check_yosida(read_csv(out / "table.csv"),
                                               n_points, q_step),
           details=lambda rep, out: {
               "max_error": yosida_error(read_csv(out / "table.csv"))}),
        Op("ladder", {"ks": list(LADDER_KS), "p_nodes": 4802, "h": LADDER_H},
           call=run_ladder, check=check_ladder),
    ]
