"""Tests of the benchmark itself: span arithmetic, tracing, checks, contract.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from bvcontact import (cli, density, extension, geometry, grid,  # noqa: E402
                       relaxation, solver)
from bvcontact.errors import LayerTooThin  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from spans import Span  # noqa: E402


# -- span arithmetic ----------------------------------------------------------------------


def _nested():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; e [12, 13] is a
    # second root
    return [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 4.0, 0),
            Span("c", 5.0, 9.0, 0), Span("d", 6.0, 7.0, 2), Span("e", 12.0, 13.0, -1)]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(_nested()) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    s = [Span("p", 0.0, 10.0, -1), Span("x", 2.0, 6.0, 0), Span("y", 4.0, 8.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(4.0)


def test_summary_busy_self_calls_and_errors():
    s = _nested() + [Span("b", 10.5, 11.0, -1, "LayerTooThin")]
    summary = spans.summarize(s)
    assert summary["a"]["busy"] == 10.0 and summary["a"]["self"] == 3.0
    assert summary["b"]["calls"] == 2 and summary["b"]["busy"] == 3.5
    assert summary["b"]["errors"] == {"LayerTooThin": 1}
    assert spans.root_coverage(s) == pytest.approx(11.5)
    assert spans.children_busy(s, "a", {"c"}) == 4.0


def test_busy_counts_recursive_spans_once():
    s = [Span("r", 0.0, 5.0, -1), Span("r", 1.0, 2.0, 0)]
    summary = spans.summarize(s)
    assert summary["r"]["busy"] == 5.0
    assert summary["r"]["self"] == 5.0


# -- tracing --------------------------------------------------------------------------------


def test_tracer_wraps_every_lookup_site_and_restores():
    originals = (cli.energy_F, relaxation.energy_F, grid.yosida_eval_many,
                 solver.yosida_eval_many, cli.yosida_eval_many,
                 cli.extend_boundary_data, geometry.DomainGrid.__init__)
    with spans.Tracer() as tracer:
        sites = tracer.sites
        for site in ("cli.energy_F", "relaxation.energy_F", "grid.yosida_eval_many",
                     "solver.yosida_eval_many", "cli.yosida_eval_many",
                     "cli.extend_boundary_data", "extension.extend_boundary_data",
                     "solver._ContactProx.apply", "geometry.DomainGrid.__init__"):
            assert site in sites
        assert cli.energy_F is not originals[0]
        assert cli.energy_F.__wrapped__ is originals[0]
    assert (cli.energy_F, relaxation.energy_F, grid.yosida_eval_many,
            solver.yosida_eval_many, cli.yosida_eval_many, cli.extend_boundary_data,
            geometry.DomainGrid.__init__) == originals


def test_traced_calls_nest_and_record_errors():
    dom = geometry.unit_square()
    with spans.Tracer() as tracer:
        u = grid.constant_field(dom.grid(1 / 16), 0.3)
        grid.energy_H(u, density.expression("p*p", c=0.0, L=0.0),
                      density.YosidaContext(1.0))
        tr = grid.trace_extract(u)
        with pytest.raises(LayerTooThin):
            extension.extend_boundary_data(tr, eps=0.01, h=1 / 16)
    h = next(i for i, s in enumerate(tracer.spans) if s.name == "grid.energy_H")
    kids = [s.name for s in tracer.spans if s.parent == h]
    assert "grid.trace_extract" in kids and "density.yosida_eval_many" in kids
    bf = [s for s in tracer.spans if s.name == "density._brute_force_yosida"]
    assert bf and all(tracer.spans[s.parent].name == "density.yosida_eval_many"
                      for s in bf)
    ext = [s for s in tracer.spans if s.name == "extension.extend_boundary_data"]
    assert ext[-1].error == "LayerTooThin"
    assert all(s.end >= s.start for s in tracer.spans)


# -- checks reject perturbed outputs ---------------------------------------------------------


def _solve_report(total=-2e-4, residual=9.9e-7, iterations=2170, feas=1.0,
                  parts=None):
    tv, contact, bulk = parts or (0.25, -0.5, 0.25)
    return {"result": {"residual": residual, "iterations": iterations,
                       "dual_feasibility_max": feas, "dual_bound": 1.0,
                       "energy_report": {"tv_term": tv, "contact_term": contact,
                                         "bulk_term": bulk, "total": total}}}


def test_capillarity_check():
    assert W.check_capillarity(_solve_report()) == []
    assert W.check_capillarity(_solve_report(total=2e-3))
    assert W.check_capillarity(_solve_report(residual=2e-6))
    assert W.check_capillarity(_solve_report(iterations=5001))
    assert W.check_capillarity(_solve_report(feas=1.0 + 1e-9))


def test_contact_table_check():
    parts = (0.1, 0.2, 0.3)
    total = 0.1 + 0.2 + 0.3
    assert W.check_contact_table(_solve_report(total=total, parts=parts)) == []
    assert W.check_contact_table(_solve_report(total=math.nextafter(total, 1.0),
                                               parts=parts))
    assert W.check_contact_table(_solve_report(total=total, parts=parts,
                                               feas=1.0 + 1e-9))


def _catalog(closed, grid_total):
    return {"result": {"last_catalog": {"grid_checks": {
        "closed_form": closed, "grid_mode_total": grid_total}}}}


def _sweep(lams, energy, flip):
    fmt = cli.FLOAT_FMT
    return [{"lambda": fmt % lam, "n": str(n), "energy": fmt % energy(lam, n),
             "violated": "1" if flip(lam) else "0"}
            for lam in lams for n in (4, 8, 16, 32)]


def test_e1_check():
    lams = W._lam_sweep(-1.0, 0.0, 0.05)
    energy = lambda lam, n: math.sqrt(2.0) + 2.0 * lam  # noqa: E731
    flip = lambda lam: lam < -math.sqrt(2.0) / 2.0  # noqa: E731
    good = _sweep(lams, energy, flip)
    rep = _catalog(math.sqrt(2.0), math.sqrt(2.0) * 1.01)
    assert W.check_e1(rep, good, lams) == []
    assert W.check_e1(_catalog(math.sqrt(2.0), math.sqrt(2.0) * 1.04), good, lams)
    bad = [dict(r) for r in good]
    bad[5]["energy"] = cli.FLOAT_FMT % (float(bad[5]["energy"]) + 1e-9)
    assert W.check_e1(rep, bad, lams)
    bad = [dict(r) for r in good]
    bad[-1]["violated"] = "1"
    assert W.check_e1(rep, bad, lams)
    assert W.check_e1(rep, good[4:], lams)


def test_e2_check():
    lams = W._lam_sweep(0.9, 1.1, 0.1)

    def energy(lam, n):
        r = (n - 1.0) / n
        return math.pi * r * r + (n - 1.0) * math.pi * (1.0 - r * r)

    good = _sweep(lams, energy, lambda lam: lam > 1.0 + 1e-9)
    rep = _catalog(7.5, 7.6)
    assert W.check_e2(rep, good, lams) == []
    assert W.check_e2(_catalog(7.5, 8.0), good, lams)
    bad = [dict(r) for r in good]
    bad[4]["violated"] = "1"          # lambda = 1 is not a violation
    assert W.check_e2(rep, bad, lams)


def test_extension_check():
    rows = [{"name": f"m{i}", "l1_ratio": "0.09", "grad_ratio": "1.2",
             "eps_effective": "0.1"} for i in range(20)]
    rep = {"result": {"n_corpus": 20}}
    assert W.check_extension(rep, rows, 20) == []
    assert W.check_extension(rep, rows[:19], 20)
    bad = [dict(r) for r in rows]
    bad[3]["l1_ratio"] = "0.106"
    assert W.check_extension(rep, bad, 20)
    bad = [dict(r) for r in rows]
    bad[7]["grad_ratio"] = "1.26"
    assert W.check_extension(rep, bad, 20)


def test_relax_check():
    def rep(upper, lower, H=5.0):
        return {"result": {"upper_gap": upper, "lower_gap": lower, "H_value": H}}
    # the one-sided bound accepts a very negative upper_gap
    assert W.check_relax(rep(-4.31, 0.36, 5.28)) == []
    assert W.check_relax(rep(0.31, 0.0))
    assert W.check_relax(rep(0.0, -0.31))


def test_yosida_check():
    step = W._yosida_q_step(-3.0, 3.0)
    p = np.linspace(-3.0, 3.0, 41)
    tau = 2.0 * W.two_well_hat(p)
    hat = W.two_well_hat(p)

    def table(hat_vals):
        return [{"p": repr(float(a)), "tau_hat": repr(float(b)), "tau": repr(float(c))}
                for a, b, c in zip(p, hat_vals, tau)]

    assert W.check_yosida(table(hat), 41, step) == []
    assert W.check_yosida(table(hat), 40, step)
    assert W.check_yosida(table(hat - 2.0 * step), 41, step)
    above = hat.copy()
    above[3] = tau[3] + 1e-9
    assert W.check_yosida(table(above), 41, step)


def _ladder_result():
    p = np.linspace(-3.0, 3.0, 601)
    tau = np.where(p > 0, -1.0, 0.0)
    tau_k = {k: np.where(p > 0, np.maximum(-1.0, -k * p), 0.0) for k in W.LADDER_KS}
    ints = {k: -1.0 + 0.5 / k for k in W.LADDER_KS}
    return {"p": p, "tau": tau, "tau_k": tau_k, "integrals": {"f": ints},
            "exact": {"f": -1.0}}


def test_ladder_check():
    assert W.check_ladder(_ladder_result()) == []
    res = _ladder_result()
    res["tau_k"][16] = res["tau_k"][16] - 0.1       # below tau
    assert W.check_ladder(res)
    res = _ladder_result()
    res["tau_k"][4] = res["tau_k"][1] + 0.01        # rises with k
    assert W.check_ladder(res)
    res = _ladder_result()
    res["integrals"]["f"][16] = res["integrals"]["f"][4] + 0.1
    assert W.check_ladder(res)
    res = _ladder_result()
    res["integrals"]["f"][64] = -0.95               # not within 1e-2 at k = 64
    assert W.check_ladder(res)


# -- failures are counted, known defects kept apart -----------------------------------------


def _raise(exc):
    def call():
        raise exc
    return call


def test_run_op_outcomes(tmp_path):
    ok = W.Op("ok", {}, call=lambda: {"integrals": {}}, check=lambda r: [])
    wrong = W.Op("wrong", {}, call=lambda: {"integrals": {}},
                 check=lambda r: ["bad value"])
    known = W.Op("known", {}, call=_raise(LayerTooThin("thin")), check=None,
                 known_defect="LayerTooThin")
    other = W.Op("other", {}, call=_raise(ValueError("boom")), check=None,
                 known_defect="LayerTooThin")
    outcomes = {op.name: harness.run_op(op, tmp_path / op.name)[0]
                for op in (ok, wrong, known, other)}
    assert outcomes["ok"].outcome == "ok"
    assert outcomes["wrong"].outcome == "failed"
    assert outcomes["known"].outcome == "known_defect"
    assert outcomes["known"].messages == ["LayerTooThin: thin"]
    assert outcomes["other"].outcome == "failed"


def test_changed_output_on_repeat_fails():
    res = [W.OpResult("x", {}, 0.1, "ok"), W.OpResult("x", {}, 0.1, "ok")]
    reps = [harness.Rep(0.1, [res[0]], ["a"]), harness.Rep(0.1, [res[1]], ["b"])]
    harness.check_repeats(reps)
    assert res[0].outcome == "ok" and res[1].outcome == "failed"


# -- the contract with BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_names_match_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    layer = harness.layer_metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "capillarity", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
