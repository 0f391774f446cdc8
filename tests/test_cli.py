import json
import math

import numpy as np
import pytest

from bvcontact import cli, density, exprgrammar
from bvcontact.cli import main, parse_density_spec, run_scenario, validate_scenario
from bvcontact.errors import ParseError, SchemaError


def test_parse_builtins():
    d = parse_density_spec("absolute:2.0")
    assert d.kind == "absolute" and d.lam == 2.0
    d = parse_density_spec("linear:-0.8")
    assert d.kind == "linear" and d.lam == -0.8
    assert parse_density_spec("quadratic").kind == "quadratic"


def test_parse_expression_with_estimated_bound():
    d = parse_density_spec("0.5*abs(p) - 1")
    assert d.kind == "expression"
    assert d.lower_bound_estimated
    from bvcontact.density import verify_lower_bound
    explicit = density.expression("0.5*abs(p) - 1", c=1.0, L=0.5)
    assert verify_lower_bound(explicit, [((0, 0), np.linspace(-9, 9, 301))]).holds


def test_parse_rejects_stray_unicode():
    with pytest.raises(ParseError) as ei:
        parse_density_spec("λp")
    assert ei.value.offset == 0


def test_parse_error_position_midway():
    with pytest.raises(ParseError) as ei:
        parse_density_spec("1 + 2 $ 3")
    assert ei.value.offset == 6


P = np.linspace(-2.0, 2.0, 17)


@pytest.mark.parametrize("text, want", [
    ("p^2", lambda p, x1: p ** 2),
    ("-p^2", lambda p, x1: -(p ** 2)),
    ("2^-p", lambda p, x1: 2.0 ** -p),
    ("2^3^p", lambda p, x1: 2.0 ** 3.0 ** p),
    ("p/4 - 1/p", lambda p, x1: p / 4.0 - 1.0 / p),
    ("(p + 1)*(p - x1)", lambda p, x1: (p + 1.0) * (p - x1)),
    ("+p - +1", lambda p, x1: p - 1.0),
    ("max(p, x1) + max(-p, 1)", lambda p, x1: np.maximum(p, x1) + np.maximum(-p, 1.0)),
    ("2 * foo(p)", 4),        # unknown name: offset of the name
    ("1 + max(p)", 4),        # wrong arity: offset of the function name
    ("abs(p, 1)", 0),
])
def test_grammar_operators_match_numpy(text, want):
    if isinstance(want, int):
        with pytest.raises(ParseError) as ei:
            exprgrammar.parse_expression(text)
        assert ei.value.offset == want
        return
    with np.errstate(divide="ignore"):
        got = exprgrammar.eval_ast(exprgrammar.parse_expression(text), P, 0.25, -0.5)
        assert np.array_equal(got, want(P, 0.25))


def test_roundtrip_identical_evaluation():
    ps = np.linspace(-5, 5, 1000)
    for d in (density.linear(-0.8), density.absolute(2.0), density.quadratic()):
        back = parse_density_spec(d.spec_text())
        assert np.array_equal(back.eval_many((0, 0), ps), d.eval_many((0, 0), ps))
    expr = density.expression("2*min(abs(p-1), abs(p+1)) - 0.25", c=0.25, L=0.0)
    back = parse_density_spec(expr.spec_text(), c=0.25, L=0.0)
    assert np.max(np.abs(back.eval_many((0, 0), ps)
                         - expr.eval_many((0, 0), ps))) <= 1e-12


def test_scenario_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        validate_scenario({"task": "qgeom", "frobnicate": 1})
    with pytest.raises(SchemaError):
        validate_scenario({"task": "qgeom", "params": {"nope": 2}})
    with pytest.raises(SchemaError):
        validate_scenario({"task": "not-a-task"})


@pytest.mark.parametrize("key, value", [
    ("iters", 0), ("iters", -3), ("iters", "10"), ("iters", math.inf), ("iters", True),
    ("iters", 2.5), ("beta", -1e-3), ("beta", None), ("beta", math.inf), ("beta", math.nan),
    ("beta", True)])
def test_solve_rejects_bad_iters_and_beta(key, value):
    with pytest.raises(SchemaError) as ei:
        validate_scenario({"task": "solve", "params": {key: value}})
    assert ei.value.location == f"params.{key}"


@pytest.mark.parametrize("value", [0, -1.0, math.inf, math.nan, True, "8", None])
def test_solve_rejects_bad_step_scale(value):
    with pytest.raises(SchemaError) as ei:
        validate_scenario({"task": "solve", "params": {"step_scale": value}})
    assert ei.value.location == "params.step_scale"


def test_solve_passes_step_scale_only_when_given(tmp_path, monkeypatch):
    # the default lives in minimize_energy alone
    seen = []
    solve = cli.minimize_energy
    monkeypatch.setattr(cli, "minimize_energy",
                        lambda *a, **kw: seen.append(kw) or solve(*a, **kw))
    for k, params in enumerate(({}, {"step_scale": 4})):
        scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 16,
               "params": {"bulk": "capillarity", "iters": 5, **params}}
        run_scenario(scn, tmp_path / str(k))
    assert "step_scale" not in seen[0]
    assert seen[1]["step_scale"] == 4.0


def test_solve_accepts_beta_zero_and_whole_float_iters():
    scn = {"task": "solve", "params": {"bulk": "capillarity", "iters": 1, "beta": 0}}
    assert validate_scenario(scn) is scn
    assert validate_scenario(json.loads('{"task": "solve", "params": {"iters": 2e3}}'))


def test_qgeom_square(tmp_path):
    rep = run_scenario({"task": "qgeom", "domain": "square"}, tmp_path)
    assert rep["result"]["Q"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert rep["result"]["n_corners"] == 4
    assert (tmp_path / "report.json").exists()


def test_energy_zero_field(tmp_path):
    rep = run_scenario({"task": "energy", "domain": "square",
                        "density": "linear:-0.5", "grid_h": 1 / 64,
                        "params": {"field": "zero"}}, tmp_path)
    assert rep["result"]["F"]["total"] == pytest.approx(0.0, abs=1e-12)
    assert rep["result"]["H"]["notes"]["representation_claimed"]


def test_counterexample_threshold_sweep(tmp_path):
    scn = {"task": "counterexample", "domain": "square", "density": "linear:-0.8",
           "sigma": 1.0, "seed": 7, "grid_h": 1 / 128,
           "params": {"family": "E1", "lam_sweep": [-1.0, 0.0, 0.05],
                      "n_values": [8]}}
    rep = run_scenario(scn, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    i_lam = header.index("lambda")
    i_v = header.index("violated")
    flips = [(float(r.split(",")[i_lam]), r.split(",")[i_v] == "1")
             for r in rows[1:]]
    # violation holds strictly below -sqrt(2)/2 ~ -0.7071
    for lam, v in flips:
        assert v == (lam < -math.sqrt(2) / 2 - 1e-9)
    assert (tmp_path / "sweep.dat").exists()


def test_determinism_byte_identical(tmp_path):
    scn = {"task": "counterexample", "domain": "square", "density": "linear:-0.8",
           "seed": 3, "params": {"family": "E1", "lam_sweep": [-1.0, -0.5, 0.1],
                                 "n_values": [4, 8]}}
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(dict(scn), a)
    run_scenario(dict(scn), b)
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    ra = json.loads((a / "report.json").read_text())
    rb = json.loads((b / "report.json").read_text())
    assert ra == rb


def test_yosida_table(tmp_path):
    rep = run_scenario({"task": "yosida", "domain": "square",
                        "density": "quadratic",
                        "params": {"p_min": -2, "p_max": 2, "n_points": 81}},
                       tmp_path)
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert lines[0] == "p,tau_hat,tau"
    assert len(lines) == 82
    for line in lines[1:]:
        p, hat, tau = map(float, line.split(","))
        expected = p * p if abs(p) <= 0.5 else abs(p) - 0.25
        assert hat == pytest.approx(expected, abs=1e-9)


def test_solve_task_writes_field(tmp_path):
    scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 32,
           "params": {"bulk": "capillarity", "iters": 800, "tol": 1e-5}}
    rep = run_scenario(scn, tmp_path)
    assert (tmp_path / "field.json").exists()
    assert (tmp_path / "field.f64").exists()
    assert (tmp_path / "diagnostics.csv").exists()
    assert rep["result"]["dual_feasibility_max"] <= 1.0 + 1e-12


def test_extend_verify_task(tmp_path):
    scn = {"task": "extend-verify", "domain": "square", "grid_h": 1 / 128,
           "seed": 5, "params": {"eps": 0.2, "n_corpus": 6}}
    rep = run_scenario(scn, tmp_path)
    assert rep["result"]["worst_l1_ratio"] <= 0.2 * 1.1
    assert rep["result"]["worst_grad_ratio"] <= 1.2 + 0.15


def test_relax_verify_task(tmp_path):
    scn = {"task": "relax-verify", "domain": "square", "density": "linear:-0.5",
           "grid_h": 1 / 64, "params": {"field": "zero", "budget": 16}}
    rep = run_scenario(scn, tmp_path)
    assert abs(rep["result"]["upper_gap"]) <= 0.1
    assert rep["result"]["lower_gap"] >= -0.1
    assert (tmp_path / "gaps.csv").exists()


def test_main_error_is_structured(tmp_path, capsys):
    rc = main(["energy", "--density", "λp", "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ParseError" and err["offset"] == 0


@pytest.mark.parametrize("config", ["missing.json", ".", "latin1.json"])
def test_main_reports_an_unreadable_config(tmp_path, capsys, config):
    (tmp_path / "latin1.json").write_bytes(b'{"domain": "caf\xe9"}')
    rc = main(["qgeom", "--config", str(tmp_path / config), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("cannot read the scenario")
    assert not (tmp_path / "o").exists()


def test_main_happy_path(tmp_path):
    rc = main(["qgeom", "--domain", "square", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["task"] == "qgeom"
    assert "scenario_hash" in rep and "version" in rep


def test_scenario_output_dir_honored(tmp_path):
    target = tmp_path / "nested" / "outdir"
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({"task": "qgeom", "domain": "square",
                               "output_dir": str(target)}))
    rc = main(["qgeom", "--config", str(cfg)])
    assert rc == 0
    assert (target / "report.json").exists()
