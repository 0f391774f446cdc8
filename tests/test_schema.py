"""The scenario table (cli.SCHEMA): probes, docs, benchmark traffic, and a
property test over drawn scenarios."""

import copy
import importlib
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bvcontact import cli
from bvcontact.cli import SCHEMA, TASKS, main, run_scenario, validate_scenario
from bvcontact.errors import BVContactError, SchemaError

ROOT = Path(__file__).resolve().parents[1]


def _location(scn, tmp_path):
    with pytest.raises(SchemaError) as ei:
        run_scenario(scn, tmp_path)
    assert not list(tmp_path.iterdir())  # refused before any output
    return ei.value.location


@pytest.mark.parametrize("scn, where", [
    ({"task": "qgeom", "grid_h": True}, "grid_h"),
    ({"task": "qgeom", "seed": True}, "seed"),
    ({"task": "yosida", "density": "quadratic", "params": {"n_points": 1.5}}, "params.n_points"),
    ({"task": "yosida", "density": "quadratic", "params": {"force_bruteforce": "no"}},
     "params.force_bruteforce"),
    ({"task": "solve", "params": {"bulk": "none"}}, "params.bulk"),
    ({"task": "energy", "density": "linear:-0.5", "params": {"mode": "Q"}}, "params.mode"),
    ({"task": "extend-verify", "params": {"eps": 0.1, "kappa": -1}}, "params.kappa"),
    ({"task": "extend-verify", "params": {"n_corpus": 0}}, "params.n_corpus"),
    ({"task": "counterexample", "params": {"n_values": []}}, "params.n_values"),
    ({"task": "yosida"}, "density"),
    ({"task": "energy", "grid_h": 1 / 16}, "density"),
    ({"task": "relax-verify", "grid_h": 1 / 16}, "density"),
    ({"task": "counterexample", "params": {"family": 3}}, "params.family"),
    ({"task": "counterexample", "params": {"lam_sweep": [0, 1]}}, "params.lam_sweep"),
    ({"task": "solve", "params": {"tol": "x"}}, "params.tol"),
    ({"task": "energy", "density": "linear:-0.5", "params": {"field": "const:x"}},
     "params.field"),
    ({"task": "solve", "nu": math.nan, "params": {"bulk": "capillarity"}}, "nu"),
    ({"task": "solve", "params": {"bulk": "capillarity", "iters": 3}}, "nu"),
    ({"task": "solve", "density": "linear:-0.5", "params": {"allow_no_bulk": True, "iters": 3}},
     "params"),
    ({"task": "qgeom", "domain": {"file": 3}}, "domain"),
    ({"task": "qgeom", "density": None}, "density"),
    ({"task": "energy", "density": "linear:-0.5", "grid_h": 0}, "grid_h"),
    ({"task": "qgeom", "sigma": -1}, "sigma"),
    ({"task": "solve", "params": {"step_scale": 6}}, "params"),  # a constant, not a key
    ({"task": "solve", "nu": -math.inf, "params": {"bulk": "capillarity"}}, "nu"),
    ({"task": "solve", "nu": 1.5, "params": {"bulk": "capillarity", "iters": 3}}, "nu"),
    (["task", "qgeom"], None),  # not an object
])
def test_probe_raises_schema_error_at_its_key(scn, where, tmp_path):
    assert _location(scn, tmp_path) == where


@pytest.mark.parametrize("scn, where", [
    ({"task": "solve", "nu": 0.5, "grid_h": 1 / 16,
      "params": {"bulk": "capillarity", "f": "const:3", "iters": 3}}, "params.f"),
    ({"task": "energy", "density": "abs(p) - 0.2*x1*x1", "grid_h": 1 / 16}, "density_c"),
    ({"task": "energy", "density": "abs(p) - 0.2*x1*x1", "density_c": 0.2, "grid_h": 1 / 16},
     "density_L"),
    ({"task": "solve", "density": "abs(p) - 0.2*x1*x1", "density_c": 0.2, "density_L": 0.0,
      "grid_h": 1 / 16, "params": {"iters": 3}}, "density"),
    # the solve dropped the density: the report total was -1.78353e-4 with
    # or without it
    ({"task": "solve", "density": "5*abs(p)", "sigma": 3, "nu": 0.5, "grid_h": 1 / 16,
      "params": {"bulk": "capillarity", "iters": 50}}, "density"),
])
def test_refused_combination_raises_at_its_key(scn, where, tmp_path):
    assert _location(scn, tmp_path) == where


@pytest.mark.parametrize("h", [1e-300, 5e-324, 1e-7])
def test_too_fine_grid_raises_schema_error(h, tmp_path, capsys):
    # numpy's ValueError, an OverflowError and a 90.9 TiB MemoryError before
    scn = {"task": "energy", "density": "linear:-0.5", "grid_h": h}
    assert _location(scn, tmp_path / "run") == "grid_h"
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps(scn))
    assert main(["energy", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "SchemaError" and err["location"] == "grid_h"


@pytest.mark.parametrize("sweep", [[1, 0, 0.1], [0, 1, -0.1], [0, 1, 0],
                                   [0, 1e-300, 1e-300], [0, 1, 1e-12]])
def test_bad_lam_sweep_is_refused(sweep, tmp_path):
    # these raised UnboundLocalError (no family built) or ZeroDivisionError, and
    # the last two numpy's "Maximum allowed size exceeded" and a 7.28 TiB
    # MemoryError
    scn = {"task": "counterexample", "params": {"family": "E1", "lam_sweep": sweep}}
    assert _location(scn, tmp_path) == "params.lam_sweep"


def test_lam_sweep_of_one_value(tmp_path):
    # [lo, lo, step] is [lo], also where lo + 1e-12 rounds to lo
    for lo in (-0.5, 1e5):
        scn = {"task": "counterexample",
               "params": {"lam_sweep": [lo, lo, 0.1], "n_values": [2]}}
        assert run_scenario(scn, tmp_path)["result"]["lambdas"] == [lo]


def test_epsilon0_is_an_unknown_key():
    with pytest.raises(SchemaError, match=r"unknown scenario keys \['epsilon0'\]"):
        validate_scenario({"task": "qgeom", "epsilon0": 0.1})


def test_validation_leaves_the_scenario_alone(tmp_path):
    scn = {"task": "counterexample", "seed": 3.0, "grid_h": 1 / 16,
           "params": {"n_values": [2, 4.0], "grid_check_n": 2.0, "lam": -1}}
    before = copy.deepcopy(scn)
    assert validate_scenario(scn) is scn
    rep = run_scenario(scn, tmp_path)
    assert scn == before and type(scn["seed"]) is float
    assert rep["seed"] == 3 and rep["grid_h"] == 1 / 16
    assert rep["result"]["last_catalog"]["grid_checks"]["n"] == 2


def test_main_reports_the_schema_location(tmp_path, capsys):
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({"task": "solve", "params": {"iters": 0}}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "SchemaError" and err["location"] == "params.iters"
    cfg.write_text("[1, 2]")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "JSON object" in json.loads(capsys.readouterr().err)["error"]


def test_benchmark_scenarios_validate_unchanged(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    seen = set()
    for w in workloads.WORKLOADS:
        for seed in (1, 2):
            for op in workloads.build(w, seed):
                if op.scenario is not None:
                    before = copy.deepcopy(op.scenario)
                    assert validate_scenario(op.scenario) is op.scenario
                    assert op.scenario == before
                    seen.update(op.scenario.get("params", {}))
    assert {"tol", "lam_sweep", "force_bruteforce", "grid_check_n"} <= seen


# -- docs/scenario-schema.md is the table -------------------------------------------------


def _doc_cell(value):
    if value is None:
        return ""
    if isinstance(value, cli.PerTask):
        return "; ".join(f"{t}: 1/{round(1 / h)}" for t, h in value.items())
    if isinstance(value, tuple):
        return ", ".join(f"`{v}`" for v in value)
    if isinstance(value, str):
        return f"`{value}`"
    if isinstance(value, (bool, list, dict)):
        return f"`{json.dumps(value)}`"
    return str(value)


def _required_cell(required):
    if set(required) == set(TASKS):
        return "every task"
    return ", ".join(f"`{t}` with `bulk: {b}`" if b else f"`{t}`"
                     for t, _, b in (r.partition(":") for r in required))


def _table_rows(rows):
    # a range is written as it is in the table; names and defaults as code
    return {(f"`{key}`", kind, allowed if isinstance(allowed, str) else _doc_cell(allowed),
             _doc_cell(default), _required_cell(required))
            for key, (kind, allowed, default, *required) in rows.items()}


def _doc_rows():
    sections, current = {}, None
    for line in (ROOT / "docs/scenario-schema.md").read_text().splitlines():
        if line == "## Common keys":
            current = sections.setdefault("", set())
        elif m := re.fullmatch(r"### `([a-z-]+)`", line):
            current = sections.setdefault(m.group(1), set())
        elif line.startswith("## "):
            current = None
        elif current is not None and line.startswith("| `"):
            current.add(tuple(c.strip() for c in line.strip("|").split("|")))
    return sections


def test_doc_and_table_agree():
    doc = _doc_rows()
    assert set(doc) | {"qgeom"} == set(SCHEMA)
    for section, rows in SCHEMA.items():
        want, got = _table_rows(rows), doc.get(section, set())
        assert want - got == set(), f"{section or 'common'}: in the table, not the doc"
        assert got - want == set(), f"{section or 'common'}: in the doc, not the table"
    text = (ROOT / "docs/scenario-schema.md").read_text()
    assert set(re.findall(r"^- `([a-z]+)`:", text, re.M)) == set(cli._KINDS)


# -- property test ------------------------------------------------------------------------

FIELDS = st.sampled_from(["zero", "x1", "x2", "cone", "bump", "const:0.5"])

# cheap upper ends for the keys the table gives a range; their valid values are
# drawn from the table's lower end up to these
CHEAP = {"n_points": 9, "n_values": 16, "grid_check_n": 8, "budget": 8, "n_corpus": 6,
         "iters": 3, "seed": 2 ** 40, "sigma": 2.0, "eps": 1.0, "kappa": 2.0, "tol": 1.0,
         "beta": 0.5, "nu": 1.0}


def _in_range(key, kind, interval):
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    top = min(hi, CHEAP[key])
    if kind in ("count", "counts"):
        counts = st.integers(int(lo) + (interval[0] == "("), int(top))
        return counts if kind == "count" else st.lists(counts, min_size=1, max_size=3)
    return st.floats(lo, top, exclude_min=interval[0] == "(",
                     exclude_max=top == hi and interval[-1] == ")")


VALID = {key: _in_range(key, kind, allowed) for rows in SCHEMA.values()
         for key, (kind, allowed, *_) in rows.items() if key in CHEAP}
VALID.update({
    "domain": st.sampled_from(["square", "lshape", "disk64", "disk256"]),
    "density": st.sampled_from(["linear:-0.5", "absolute:0.5", "quadratic", "abs(p) - 0.25"]),
    "density_c": st.sampled_from([0.25, 1]), "density_L": st.sampled_from([0.0, 0.5]),
    "nu": st.floats(-0.5, 0.5), "grid_h": st.sampled_from([1 / 8, 1 / 16, 1]),
    "output_dir": st.just("elsewhere"),
    "p_min": st.floats(-3, 0), "p_max": st.floats(0, 3),
    "force_bruteforce": st.booleans(), "field": FIELDS, "f": FIELDS,
    "mode": st.sampled_from(["F", "H", "both"]),
    "family": st.sampled_from(["E1", "E2", "LOG1D"]), "lam": st.floats(-1.5, 1.5),
    "lam_sweep": st.tuples(st.floats(-1, 1), st.integers(0, 3), st.floats(0.1, 0.5)).map(
        lambda t: [t[0], t[0] + t[1] * t[2], t[2]]),
    "bulk": st.sampled_from(["quadratic", "capillarity"]),
})
ALWAYS = {"grid_h", "n_points", "budget", "n_corpus", "iters"}  # keep every run cheap

WRONG = {
    "float": [True, "1", None, [1.0], math.nan, math.inf],
    "number": [False, "1", None, math.nan, -math.inf],
    "count": [True, 1.5, "2", None, math.inf],
    "counts": [[], [1.5], 4, ["4"], [True]],
    "flag": ["no", 0, 1, None],
    "enum": ["nope", 3, None, ["F"]],
    "text": ["", " ", 3, None],
    "object": [[], "x", None],
    "sweep": [[0, 1], [1, 0, 0.1], [0, 1, -0.1], [0, 1, 0], [0, math.nan, 1], "0:1:0.1"],
    "field": ["nope", "const:x", "const:nan", {"file": 3}, {"path": "b"}, 3],
    "domain": ["nope", {"file": 3}, {}, 3],
}


def _out_of_range(kind, interval):
    if not isinstance(interval, str):
        return []
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    bad = [lo if interval[0] == "(" else lo - 1]
    if hi < math.inf:
        bad.append(hi + 1 if interval[-1] == "]" else hi)
    return [[x] for x in bad] if kind == "counts" else bad


@st.composite
def scenarios(draw):
    """(scenario, location of its one schema violation or None)."""
    task = draw(st.sampled_from(TASKS))
    keys = [("", k) for k in SCHEMA[""] if k not in ("task", "params")]
    keys += [("params.", k) for k in SCHEMA[task]]
    chosen = set(draw(st.lists(st.sampled_from(keys), unique=True, max_size=8)))
    chosen |= {(w, k) for w, k in keys if k in ALWAYS}
    if draw(st.integers(0, 4)):  # mostly with a density, which three tasks require
        chosen.add(("", "density"))
    bad = draw(st.none() | st.sampled_from(keys + [("", "params")]))
    scn, params = {"task": task}, {}
    for where, key in sorted(chosen | ({bad} if bad else set())):
        kind, allowed = (SCHEMA[""] if where == "" else SCHEMA[task])[key][:2]
        value = (draw(st.sampled_from(WRONG[kind] + _out_of_range(kind, allowed)))
                 if (where, key) == bad else draw(VALID[key]))
        (scn if where == "" else params)[key] = value
    if bad != ("", "params"):
        scn["params"] = params
    return scn, bad and bad[0] + bad[1]


def _missing(scn):
    """Location of the first required key the scenario lacks, else of a nu
    given to a quadratic solve (only capillarity reads nu), else of an f
    given to a solve whose bulk is not quadratic (only that bulk reads f), else
    of a density given to a capillarity solve (which reads none), or None."""
    task, params = scn["task"], scn["params"]
    needs = {task, f"{task}:{params.get('bulk', 'quadratic')}"}
    for where, given, rows in (("", scn, SCHEMA[""]), ("params.", params, SCHEMA[task])):
        for key, (_, _, default, *required) in rows.items():
            value = given.get(key, default)
            if needs & set(required) and value is None:
                return where + key
    if "solve:quadratic" in needs and scn.get("nu") is not None:
        return "nu"
    if "solve:capillarity" in needs and params.get("f") is not None:
        return "params.f"
    if "solve:capillarity" in needs and scn.get("density") is not None:
        return "density"
    return None


CHEAP_BASE = {
    "yosida": {"density": "linear:-0.5", "params": {"n_points": 3}},
    "qgeom": {},
    "energy": {"density": "linear:-0.5", "grid_h": 1 / 8},
    "counterexample": {"grid_h": 1 / 8, "params": {"n_values": [2]}},
    "relax-verify": {"density": "linear:-0.5", "grid_h": 1 / 8, "params": {"budget": 2}},
    "extend-verify": {"grid_h": 1 / 8, "params": {"n_corpus": 6}},
    "solve": {"grid_h": 1 / 8, "nu": 0.3, "params": {"bulk": "capillarity", "iters": 2}},
}


def _range_ends():
    for task in TASKS:
        for where, rows in (("", SCHEMA[""]), ("params.", SCHEMA[task])):
            for key, (kind, interval, *_) in rows.items():
                if not isinstance(interval, str) or key == "grid_h":  # a fine grid is costly
                    continue
                lo, hi = (float(s) for s in interval[1:-1].split(","))
                low = lo if interval[0] == "[" else math.nextafter(lo, math.inf)
                for value in (low, min(hi, CHEAP[key])):
                    if kind == "count":
                        value = int(value)
                    elif kind == "counts":
                        value = [int(value)]
                    yield pytest.param(task, where, key, value, id=f"{task}-{key}-{value}")


@pytest.mark.parametrize("task, where, key, value", _range_ends())
def test_range_ends_run_or_fail_typed(task, where, key, value, tmp_path):
    scn = copy.deepcopy({"task": task, **CHEAP_BASE[task]})
    (scn.setdefault("params", {}) if where else scn)[key] = value
    try:
        run_scenario(scn, tmp_path)
    except BVContactError as e:
        assert not isinstance(e, SchemaError), e


def test_valid_draws_cover_the_table():
    assert set(VALID) | {"task", "params"} == {k for rows in SCHEMA.values() for k in rows}
    assert set(WRONG) == set(cli._KINDS)


# none of the 200 derandomized draws is a capillarity solve with its nu, no f
# and a density, so the refusal of that density has an explicit example
@given(case=scenarios())
@example(case=({"task": "solve", "density": "linear:-0.5", "nu": 0.3, "grid_h": 1 / 8,
                "params": {"bulk": "capillarity", "iters": 2}}, None))
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
def test_drawn_scenarios_run_or_fail_typed(case):
    scn, bad = case
    before = copy.deepcopy(scn)
    with tempfile.TemporaryDirectory() as out:
        try:
            run_scenario(scn, out)
            error = None
        except BVContactError as e:
            error = e
    assert repr(scn) == repr(before)  # not mutated (repr: NaN != NaN)
    want = bad or _missing(scn)
    if want is not None:
        assert isinstance(error, SchemaError) and error.location == want, (scn, error)
    else:
        assert not isinstance(error, SchemaError), (scn, error)
