import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bvcontact import cli, density, exprgrammar, geometry, solver
from bvcontact.cli import main, parse_density_spec, run_scenario, validate_scenario
from bvcontact.corpus import boundary_data
from bvcontact.errors import ParseError, SchemaError
from bvcontact.geometry import l_shape, unit_square
from bvcontact.grid import constant_field, save_field
from bvcontact.relaxation import Log1DFamily


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


@pytest.mark.parametrize("text, offset", [("", 0), ("linear:abc", 7)])
def test_parse_error_position_of_empty_and_bad_coefficient(text, offset):
    with pytest.raises(ParseError) as ei:
        parse_density_spec(text)
    assert ei.value.offset == offset


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
    ("abs(p", 5),             # expected ')': offset of what came instead
    ("p p", 2),               # trailing input
    ("p + *", 4),             # unexpected token
    ("  ", 0),                # empty expression
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


def test_solve_accepts_beta_zero_and_whole_float_iters():
    scn = {"task": "solve", "params": {"bulk": "capillarity", "iters": 1, "beta": 0}}
    assert validate_scenario(scn) is scn
    assert validate_scenario(json.loads('{"task": "solve", "params": {"iters": 2e3}}'))


def test_qgeom_square(tmp_path):
    rep = run_scenario({"task": "qgeom", "domain": "square"}, tmp_path)
    assert rep["result"]["Q"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert rep["result"]["n_corners"] == 4
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", sorted(geometry.BUILTIN_DOMAINS))
def test_qgeom_emmer_bound_is_emmer_checks(name, tmp_path):
    # the report's bound is geometry.emmer_check's, and keeps the bits of
    # 1/sqrt(1 + L^2) that qgeom reports have always held
    dom = geometry.builtin_domain(name)
    rep = run_scenario({"task": "qgeom", "domain": name}, tmp_path)
    bound = 1.0 / math.sqrt(1.0 + dom.lipschitz_constant ** 2)
    assert rep["result"]["emmer_bound"] == geometry.emmer_check(0.5, dom)["bound"] == bound


def test_energy_zero_field(tmp_path):
    rep = run_scenario({"task": "energy", "domain": "square",
                        "density": "linear:-0.5", "grid_h": 1 / 64,
                        "params": {"field": "zero"}}, tmp_path)
    assert rep["result"]["F"]["total"] == pytest.approx(0.0, abs=1e-12)
    assert rep["result"]["H"]["notes"]["representation_claimed"]


def test_energy_of_a_constant_field(tmp_path):
    rep = run_scenario({"task": "energy", "density": "linear:-0.5", "grid_h": 1 / 16,
                        "params": {"field": "const:0.5", "mode": "F"}}, tmp_path)
    # no gradient; the trace 0.5 on the perimeter 4 at tau = -0.5 p
    assert rep["result"]["F"]["total"] == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize("grid_h, cells", [(1 / 64, 64), (0.3, 3)])
def test_log1d_grid_check_runs_at_grid_h(grid_h, cells, tmp_path):
    # the members were built on 10,000 cells whatever grid_h said: at h = 1/64
    # the report gave h 0.015625 with the 1e-4 lattice's value -1.0000250008e-4
    assert Log1DFamily().member(10, grid_h).realization.values.shape == (1, cells)
    scn = {"task": "counterexample", "grid_h": grid_h,
           "params": {"family": "LOG1D", "n_values": [10], "grid_check_n": 10}}
    checks = run_scenario(scn, tmp_path)["result"]["last_catalog"]["grid_checks"]
    # a monotone lattice function with tau = p at both ends: TV(u) + u(0) +
    # u(1) = 2 u(1), read at the last cell center 1 - h/2
    h = 1 / cells
    assert checks["h"] == h
    assert checks["grid_mode_total"] == pytest.approx(2 * math.log(1 - h / 2), rel=1e-9)


@pytest.mark.parametrize("h", [1e-300, 5e-324, 1e-10])
def test_log1d_too_fine_grid_raises_schema_error(h, tmp_path):
    scn = {"task": "counterexample", "grid_h": h,
           "params": {"family": "LOG1D", "n_values": [10], "grid_check_n": 10}}
    with pytest.raises(SchemaError) as ei:
        run_scenario(scn, tmp_path)
    assert ei.value.location == "grid_h"


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
    assert rep["result"]["search"] == "closed_form"


@pytest.mark.parametrize("density, force, search", [
    ("quadratic", True, "grid"), ("2*min(abs(p-1), abs(p+1))", False, "kinks"),
    ("p*p + 0.5*abs(p-0.25)", False, "grid"), ("absolute:0.5", True, "kinks")])
def test_yosida_report_names_its_search(density, force, search, tmp_path):
    # every density here is nonnegative: c = L = 0
    rep = run_scenario({"task": "yosida", "density": density, "density_c": 0.0,
                        "density_L": 0.0, "params": {"n_points": 9, "force_bruteforce": force}}, tmp_path)
    assert rep["result"]["search"] == search


def test_solve_task_writes_field(tmp_path):
    scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 32,
           "params": {"bulk": "capillarity", "iters": 800, "tol": 1e-5}}
    rep = run_scenario(scn, tmp_path)
    assert (tmp_path / "field.json").exists()
    assert (tmp_path / "field.f64").exists()
    assert (tmp_path / "diagnostics.csv").exists()
    assert rep["result"]["dual_feasibility_max"] <= 1.0 + 1e-12
    assert rep["result"]["relaxation"] == solver.RELAX


@pytest.mark.parametrize("bulk", ["capillarity"])
def test_solve_without_quadratic_bulk_rejects_f(bulk, tmp_path):
    scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 16,
           "params": {"bulk": bulk, "f": "bump", "iters": 50, "tol": 0.0}}
    with pytest.raises(SchemaError, match="reads no f") as err:
        run_scenario(scn, tmp_path)
    assert err.value.location == "params.f"


def test_quadratic_solve_rejects_nu(tmp_path):
    # the solve ran the quadratic bulk with no density and f = 0, ignored nu
    # and returned the total 0.0 after one iteration
    scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 16,
           "params": {"iters": 50}}
    with pytest.raises(SchemaError, match="reads no nu") as err:
        run_scenario(scn, tmp_path)
    assert err.value.location == "nu"
    assert not list(tmp_path.iterdir())


def test_quadratic_solve_rejects_beta(tmp_path):
    # the solve ignored beta: linear:-0.5, f = bump at h = 1/16 gave 78
    # iterations and the total -1.6500997761638048 at beta 0.001 and 0.5 alike
    scn = {"task": "solve", "domain": "square", "density": "linear:-0.5", "grid_h": 1 / 16,
           "params": {"f": "bump", "beta": 0.5}}
    with pytest.raises(SchemaError, match="reads no beta") as err:
        run_scenario(scn, tmp_path)
    assert err.value.location == "params.beta"
    assert not list(tmp_path.iterdir())


def test_solve_builds_one_grid(tmp_path, monkeypatch):
    # the forcing is loaded on the one grid the solve runs on
    built, solves = [], []
    init = geometry.DomainGrid.__init__
    monkeypatch.setattr(geometry.DomainGrid, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    real = cli.minimize_energy
    monkeypatch.setattr(cli, "minimize_energy",
                        lambda grid, **kw: solves.append((grid, kw["f"])) or real(grid, **kw))
    run_scenario({"task": "solve", "domain": "square", "density": "linear:-0.5",
                  "grid_h": 1 / 16, "params": {"f": "bump", "iters": 5}}, tmp_path)
    (grid, f), = solves
    assert built == [grid] and f.grid is grid


def test_solve_diagnostics_columns_are_documented(tmp_path):
    doc = (Path(__file__).resolve().parents[1] / "docs/output-formats.md").read_text()
    cols = re.search(r"`solve` -> `diagnostics.csv`: `([^`]*)`", doc).group(1)
    scn = {"task": "solve", "domain": "square", "nu": 0.5, "grid_h": 1 / 32,
           "params": {"bulk": "capillarity", "iters": 25, "tol": 0.0}}
    rep = run_scenario(scn, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0].split(",") == [c.strip() for c in cols.split(",")]
    gaps = [line.split(",")[3] for line in lines[1:]]
    assert [k for k, g in enumerate(gaps) if g] == [9, 19, 24]
    energies = [line.split(",")[1] for line in lines[1:]]
    assert [k for k, e in enumerate(energies) if e] == [9, 19, 24]
    assert float(gaps[-1]) == pytest.approx(rep["result"]["gap"], rel=1e-11)
    assert rep["result"]["gap_relative"] == pytest.approx(
        rep["result"]["gap"] / max(1.0, abs(float(lines[-1].split(",")[1]))), rel=1e-11)


def test_extend_verify_task(tmp_path):
    scn = {"task": "extend-verify", "domain": "square", "grid_h": 1 / 128,
           "seed": 5, "params": {"eps": 0.2, "n_corpus": 6}}
    rep = run_scenario(dict(scn), tmp_path / "a")
    run_scenario(dict(scn), tmp_path / "b")
    assert rep["result"]["worst_l1_ratio"] <= 0.2 * 1.1
    assert rep["result"]["worst_grad_ratio"] <= 1.2 + 0.15
    ratios = (tmp_path / "a" / "ratios.csv").read_bytes()
    assert ratios == (tmp_path / "b" / "ratios.csv").read_bytes()
    names = [line.split(",")[0] for line in ratios.decode().splitlines()[1:]]
    assert names == [name for name, _ in boundary_data(6, None)]


def test_extend_verify_runs_members_at_their_floor(tmp_path):
    # sincos runs at its resolvability floor here, whose layer width used to
    # round to one ulp below 8h and raise LayerTooThin
    rc = main(["extend-verify", "--domain", "lshape", "--grid", str(1 / 256),
               "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "ratios.csv").read_text().splitlines()]
    sincos = rows[[r[0] for r in rows].index("sincos")]
    assert float(sincos[-1]) > 0.1 and len(rows) == 21


def test_field_file_reads_as_the_builtin_field(tmp_path):
    # a field given as {"file": ...} is the one save_field wrote
    base = {"domain": "lshape", "density": "linear:-0.5", "grid_h": 1 / 32}
    g = l_shape().grid(1 / 32)
    save_field(cli._FIELD_BUILDERS["cone"](g), tmp_path / "cone")
    for task, params in (("energy", {}), ("relax-verify", {"budget": 4})):
        reps = [run_scenario({"task": task, **base, "params": {"field": field, **params}},
                             tmp_path / f"{task}-{k}")["result"]
                for k, field in enumerate(("cone", {"file": str(tmp_path / "cone")}))]
        assert reps[0] == reps[1]


def _field_file(tmp_path, g):
    """A field file save_field wrote on g, and its header."""
    base = tmp_path / "field"
    save_field(constant_field(g, 1.0), base)
    return base, json.loads(base.with_suffix(".json").read_text())


@pytest.mark.parametrize("task, key", [("energy", "field"), ("relax-verify", "field"),
                                       ("solve", "f")])
def test_a_vector_field_file_is_refused_at_its_key(task, key, tmp_path):
    # the constant (1, 1) on the square, written as a 2-component field file:
    # the energy task with linear:1 read it as tau = sum p_i and gave an F
    # contact term of 8.0, lam (1 + 1) times the perimeter
    g = unit_square().grid(1 / 32)
    base, header = _field_file(tmp_path, g)
    header.update(shape=[*g.mask.shape, 2], M=2)
    base.with_suffix(".json").write_text(json.dumps(header))
    np.ones(g.mask.shape + (2,)).tofile(base.with_suffix(".f64"))
    params = {key: {"file": str(base)}, **({"iters": 5} if task == "solve" else {})}
    with pytest.raises(SchemaError, match="M must be 1") as err:
        run_scenario({"task": task, "domain": "square", "density": "linear:1",
                      "grid_h": 1 / 32, "params": params}, tmp_path / "out")
    assert err.value.location == f"params.{key}"


@pytest.mark.parametrize("case, match", [
    ("truncated", "bytes"),
    ("longer mask_rle", "stored mask"),
    ("no h", "needs the keys"),
    ("not an object", "needs the keys"),
    ("invalid JSON", "invalid field header JSON"),
    ("component axis", "stored shape"),
    ("NaN on the mask", "non-finite"),
])
def test_a_malformed_field_file_raises_schema_error(case, match, tmp_path):
    g = l_shape().grid(1 / 32)
    base, header = _field_file(tmp_path, g)
    head, f64 = base.with_suffix(".json"), base.with_suffix(".f64")
    values = np.fromfile(f64)
    if case == "truncated":
        values[:-1].tofile(f64)
    elif case == "longer mask_rle":
        header["mask_rle"]["runs"][-1] += 1
    elif case == "no h":
        del header["h"]
    elif case == "not an object":
        header = list(header.values())
    elif case == "component axis":
        header["shape"] += [1]
    elif case == "NaN on the mask":
        values[np.flatnonzero(g.mask)[7]] = np.nan
        values.tofile(f64)
    head.write_text("{" if case == "invalid JSON" else json.dumps(header))
    with pytest.raises(SchemaError, match=match) as err:
        run_scenario({"task": "energy", "domain": "lshape", "density": "linear:1",
                      "grid_h": 1 / 32, "params": {"field": {"file": str(base)}}},
                     tmp_path / "out")
    assert err.value.location == "params.field"


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


def test_main_reports_malformed_scenario_json(tmp_path, capsys):
    cfg = tmp_path / "scn.json"
    cfg.write_text('{"task": "qgeom",\n "domain": }')
    rc = main(["qgeom", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("invalid scenario JSON") and err["line"] == 2
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


def test_write_csv_cells_of_every_type(tmp_path):
    # the bytes every cell type wrote before floats were tested first
    row = [True, False, 3, np.int64(-7), 0.1, np.float64(1 / 3), math.inf, -math.inf,
           math.nan, np.float64("-inf"), np.float64("nan"), "abc", 1e300, -2.5e-12,
           np.float32(0.5)]
    path = tmp_path / "t.csv"
    cli.write_csv(path, [str(i) for i in range(len(row))], [row, row[::-1]], dat=True)
    assert path.read_bytes() == (
        b"0,1,2,3,4,5,6,7,8,9,10,11,12,13,14\n"
        b"1,0,3,-7,0.1,0.333333333333,inf,-inf,nan,-inf,nan,abc,1e+300,-2.5e-12,0.5\n"
        b"0.5,-2.5e-12,1e+300,abc,nan,-inf,nan,-inf,inf,0.333333333333,0.1,-7,3,0,1\n")
    assert path.with_suffix(".dat").read_bytes() == b"1 0\n0.5 -2.5e-12\n"
