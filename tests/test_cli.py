import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from feedincap import Scenario, cli, feasible_at
from feedincap.fixtures import example_grid_7kwp, synth_grid
from feedincap.grid import GenUnit, serialize_grid

from util import chain3, two_bus

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture()
def example_file(tmp_path):
    p = tmp_path / "example.json"
    p.write_text(serialize_grid(example_grid_7kwp()))
    return str(p)


@pytest.fixture()
def toy_file(tmp_path):
    p = tmp_path / "toy.json"
    p.write_text(serialize_grid(two_bus()))
    return str(p)


def _cyclic_doc() -> str:
    return json.dumps({
        "base_mva": 1.0, "base_kv": 20.0,
        "buses": [{"id": "sub", "is_slack": True}, {"id": "a"}, {"id": "b"}],
        "lines": [
            {"from": "sub", "to": "a", "r": 0.01, "x": 0.01, "s_max": 5.0},
            {"from": "a", "to": "b", "r": 0.01, "x": 0.01, "s_max": 5.0},
            {"from": "b", "to": "sub", "r": 0.01, "x": 0.01, "s_max": 5.0},
        ],
    })


# -- validate ----------------------------------------------------------------


def test_validate_ok(example_file, capsys):
    assert cli.main(["validate", example_file]) == 0
    assert "ok: 2 buses" in capsys.readouterr().out


def test_validate_cycle(tmp_path, capsys):
    p = tmp_path / "cycle.json"
    p.write_text(_cyclic_doc())
    assert cli.main(["validate", str(p)]) == 1
    assert "non-radial topology" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_validate_garbage(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert cli.main(["validate", str(p)]) == 2


def test_grid_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(serialize_grid(two_bus()).replace('"n1"', '"caf\xe9"').encode("latin-1"))
    assert cli.main(["validate", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8")


def test_scenario_file_that_is_not_utf8_is_a_usage_error(toy_file, tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    sc.write_bytes('{"fl": 0.7, "case": "a"} \xe9'.encode("latin-1"))
    assert cli.main(["plan", toy_file, "--scenario", str(sc),
                     "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {sc}: not UTF-8")
    assert not (tmp_path / "out").exists()


def test_scenario_file_that_cannot_be_read_is_a_usage_error(toy_file, tmp_path, capsys):
    sc = tmp_path / "missing.json"
    with pytest.raises(OSError) as exc:
        sc.read_text(encoding="utf-8")
    assert cli.main(["plan", toy_file, "--scenario", str(sc),
                     "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: cannot read {sc}: {exc.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("code,mutate", [
    pytest.param("empty", lambda d: d["buses"].clear(), id="empty"),
    pytest.param("bad_base", lambda d: d.update(base_mva=0.0), id="bad_base"),
    pytest.param("bad_hour_duration", lambda d: d.update(hour_duration_h=0.0),
                 id="bad_hour_duration"),
    pytest.param("slack_count", lambda d: d["buses"][1].update(is_slack=True), id="slack_count"),
    pytest.param("neg_demand", lambda d: d["buses"][1].update(demand_p=[-0.1]), id="neg_demand"),
    pytest.param("series_length", lambda d: d["buses"][1].update(demand_p=[0.0, 0.0]),
                 id="series_length-bus"),
    pytest.param("series_length", lambda d: d["generators"][0].update(profile=[1.0, 1.0]),
                 id="series_length-generator"),
    pytest.param("unknown_bus", lambda d: d["lines"][0].update(to="nowhere"),
                 id="unknown_bus-line"),
    pytest.param("unknown_bus", lambda d: d["generators"][0].update(bus="nowhere"),
                 id="unknown_bus-generator"),
    pytest.param("bad_line_param", lambda d: d["lines"][0].update(r=-0.0001),
                 id="bad_line_param-negative-r"),
    pytest.param("bad_line_param", lambda d: d["lines"][0].update(s_max=0.0),
                 id="bad_line_param-zero-s_max"),
    pytest.param("duplicate_gen", lambda d: d["generators"].append(dict(d["generators"][0])),
                 id="duplicate_gen"),
])
def test_validate_names_each_error_code(code, mutate, tmp_path, capsys):
    doc = json.loads((FIXTURES / "example.json").read_text())
    mutate(doc)
    (tmp_path / "grid.json").write_text(json.dumps(doc))
    assert cli.main(["validate", str(tmp_path / "grid.json")]) == 1
    assert f"error {code} at " in capsys.readouterr().out


def test_validate_zero_impedance_is_a_warning(tmp_path, capsys):
    p = tmp_path / "ideal.json"
    p.write_text(serialize_grid(two_bus(r=0.0, x=0.0)))
    assert cli.main(["validate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "warning zero_impedance at sub-n1" in out
    assert "ok: 2 buses" in out


@pytest.mark.parametrize("command,where,key,value", [
    ("validate", "buses", "vmin", "x"),
    ("validate", "grid", "base_mva", "x"),
    ("validate", "generators", "profile", 5),
    ("validate", "generators", "profile", ["a"]),
    ("validate", "generators", "profile", "12"),
    ("validate", "buses", "is_slack", "false"),
    ("plan", "scenario", "fl", "x"),
    ("plan", "scenario", "hours", 3),
    ("plan", "scenario", "hours", [0.5]),
    ("plan", "scenario", "hours", [True]),
    ("plan", "scenario", "fl", True),
    ("plan", "scenario", "demand_multiplier", False),
    ("plan", "scenario", "demand_multiplier", "1.5"),
    ("plan", "scenario", "fl", "0.7"),
    ("validate", "lines", "s_max", True),
    ("validate", "buses", "vmax", True),
    ("validate", "generators", "p_max", False),
    ("validate", "buses", "demand_p", [True]),
    ("validate", "generators", "profile", [None]),
    ("validate", "buses", "vmin", "0.9"),
    pytest.param("validate", "lines", "r", 10**400, id="validate-lines-r-int-too-large"),
    pytest.param("validate", "buses", "demand_p", [10**400],
                 id="validate-buses-demand_p-int-too-large"),
    pytest.param("plan", "scenario", "fl", 10**400, id="plan-scenario-fl-int-too-large"),
    pytest.param("plan", "scenario", "hours", [0, 0], id="plan-scenario-hours-repeated"),
])
def test_malformed_values_are_usage_errors(command, where, key, value, tmp_path, capsys):
    grid_doc = json.loads(serialize_grid(two_bus()))
    argv = [command, str(tmp_path / "grid.json")]
    if where == "scenario":
        (tmp_path / "scenario.json").write_text(json.dumps({key: value}))
        argv += ["--scenario", str(tmp_path / "scenario.json"),
                 "--outdir", str(tmp_path / "out")]
    else:
        (grid_doc if where == "grid" else grid_doc[where][-1])[key] = value
    (tmp_path / "grid.json").write_text(json.dumps(grid_doc))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command,flags", [
    ("validate", []), ("plan", ["--outdir"]), ("sweep", ["--outdir"]),
    ("simulate", ["--scal", "1", "--outdir"]),
])
def test_huge_vmax_is_a_domain_error(command, flags, tmp_path, capsys):
    # finite, so only its overflowing square (vmax**2 raises) gives it away
    doc = json.loads(serialize_grid(example_grid_7kwp()))
    doc["buses"][-1]["vmax"] = 1e200
    (tmp_path / "grid.json").write_text(json.dumps(doc))
    outdir = [str(tmp_path / "o")] if flags else []
    assert cli.main([command, str(tmp_path / "grid.json"), *flags, *outdir]) == 1
    assert "non_finite at n001" in "".join(capsys.readouterr())   # validate: stdout
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flags", [
    ("validate", []), ("plan", ["--outdir"]), ("plan", ["--engine", "oracle", "--outdir"]),
    ("sweep", ["--outdir"]), ("simulate", ["--scal", "1", "--outdir"]),
])
def test_grid_without_lines_is_a_domain_error(command, flags, tmp_path, capsys):
    # a lone slack bus is a tree, but no bound could stop the expansion
    (tmp_path / "grid.json").write_text(json.dumps({
        "base_mva": 1.0, "base_kv": 20.0,
        "buses": [{"id": "sub", "is_slack": True, "demand_p": [0.1]}],
        "lines": [],
        "generators": [{"id": "c", "bus": "sub", "kind": "pv_candidate", "p_max": 0.5}],
    }))
    outdir = [str(tmp_path / "o")] if flags else []
    assert cli.main([command, str(tmp_path / "grid.json"), *flags, *outdir]) == 1
    out, err = capsys.readouterr()
    assert "error no_lines at grid: no lines" in (out if command == "validate" else err)
    assert "argmin" not in out + err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("r", 1e308), ("base_mva", 1e-310)])
def test_validate_rejects_impedances_that_overflow_the_linear_model(key, value, tmp_path,
                                                                    capsys):
    # finite, but the linear model's 2 * r / base_mva overflows: an input error,
    # not an infeasible build-out
    doc = json.loads(serialize_grid(example_grid_7kwp()))
    (doc if key == "base_mva" else doc["lines"][0])[key] = value
    (tmp_path / "grid.json").write_text(json.dumps(doc))
    assert cli.main(["validate", str(tmp_path / "grid.json")]) == 1
    assert "error non_finite at grid" in capsys.readouterr().out


# -- plan --------------------------------------------------------------------


def test_plan_thermal_toy(toy_file, tmp_path, capsys):
    rc = cli.main(["plan", toy_file, "--fl", "1.0",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert doc["scal_star"] == pytest.approx(5.0, abs=1e-6)
    assert doc["engine"] == "milp"
    out = capsys.readouterr().out
    assert "scal*" in out and "binding: thermal:sub-n1" in out


def test_plan_both_engines_reports_deviation(toy_file, tmp_path):
    rc = cli.main(["plan", toy_file, "--fl", "0.7", "--engine", "both",
                   "--outdir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "plan.json").read_text())
    assert doc["deviation"] <= 1e-3
    assert doc["milp_scal"] == pytest.approx(5.0 / 0.7, abs=1e-4)
    assert doc["oracle_scal"] == pytest.approx(5.0 / 0.7, abs=1e-3)


def test_verbose_logs_the_oracle_answer(toy_file, tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="feedincap")

    def oracle_lines():
        return [r.getMessage() for r in caplog.records
                if r.levelno == logging.DEBUG and "scal*" in r.getMessage()]

    plan = ["plan", toy_file, "--fl", "0.7", "--engine", "oracle",
            "--outdir", str(tmp_path)]
    assert cli.main(plan) == 0
    assert oracle_lines() == []
    assert cli.main(["-v"] + plan) == 0
    (line,) = oracle_lines()
    assert "7.14285714" in line and "pass(es)" in line
    assert "('thermal', 'sub-n1', 0)" in line

    caplog.clear()
    assert cli.main(["-v", "sweep", toy_file, "--cases", "a", "--mults", "1.0",
                     "--outdir", str(tmp_path), "--csv"]) == 0
    cells = oracle_lines()
    assert len(cells) == 4 and all("sub-n1" in m for m in cells)


CELL_LINE = re.compile(r"cell fl=(\S+) case=([ab]) x(\S+): ok: scal\* = (\S+) after "
                       r"(\d+) pass\(es\), binding \('(thermal|v_high)', '[^']+', \d+\)")


def test_sweep_verbose_logs_each_cell_once(tmp_path, caplog):
    # the sweep searches each (case, multiplier)'s limits together, yet logs
    # the oracle's answer once per cell, in the plan's format
    caplog.set_level(logging.DEBUG, logger="feedincap")
    assert cli.main(["-v", "sweep", str(FIXTURES / "urban_mv.json"),
                     "--outdir", str(tmp_path)]) == 0
    logged = [CELL_LINE.fullmatch(r.getMessage()) for r in caplog.records
              if "scal*" in r.getMessage()]
    assert len(logged) == 24 and all(logged)
    cells = json.loads((tmp_path / "sweep.json").read_text())["cells"]
    by_key = {(m[1], m[2], m[3]): m[4] for m in logged}
    assert len(by_key) == 24
    for c in cells:
        key = (f"{c['fl']:g}", c["case"], f"{c['demand_multiplier']:g}")
        assert by_key[key] == repr(c["scal_star"]), key


def _plan_example_milp(outdir, before=(), after=()):
    """`feedincap [before] plan fixtures/example.json --engine milp [after]` in a
    fresh interpreter, so stderr holds exactly what the CLI logs."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "feedincap.cli", *before, "plan",
         str(root / "fixtures" / "example.json"), "--engine", "milp",
         "--outdir", str(outdir), *after], capture_output=True, text=True, env=env)


MILP_LINE = (r"DEBUG feedincap\.analysis: cell fl=1 case=a x1: milp optimal after 1 node\(s\), "
             r"gap 0, 0 free trigger\(s\)\n")


def test_verbose_logs_the_milp_work_on_stderr(tmp_path):
    quiet, loud = _plan_example_milp(tmp_path), _plan_example_milp(tmp_path, before=["-v"])
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == "" and loud.stdout == quiet.stdout
    assert re.fullmatch(MILP_LINE, loud.stderr)


def test_verbose_flag_goes_before_or_after_the_subcommand(tmp_path):
    before = _plan_example_milp(tmp_path, before=["-v"])
    after = _plan_example_milp(tmp_path, after=["-v"])
    assert before.returncode == after.returncode == 0
    assert after.stdout == before.stdout and "scal* = " in after.stdout
    assert re.fullmatch(MILP_LINE, after.stderr) and after.stderr == before.stderr


def test_plan_infeasible_at_zero_distinct_exit(tmp_path, capsys):
    grid = synth_grid("hybrid_mv")
    p = tmp_path / "hybrid.json"
    p.write_text(serialize_grid(grid))
    rc = cli.main(["plan", str(p), "--fl", "1.0", "--demand-mult", "0.5",
                   "--engine", "oracle", "--outdir", str(tmp_path)])
    assert rc == 1
    head, *listed = capsys.readouterr().out.splitlines()
    assert head.startswith("infeasible at scal = 0")
    # the first five violations of the report at zero, in its order
    zero = feasible_at(grid, Scenario(fl=1.0, demand_multiplier=0.5), 0.0)
    assert listed == [f"  {v.kind} {v.element} hour {v.hour}: +{v.amount:.6g}"
                      for v in zero.violations[:5]]
    assert zero.n_violations > 5 and listed[0] == "  v_high n121 hour 0: +0.000253793"
    assert not (tmp_path / "plan.json").exists()


def test_plan_milp_budget_exit_writes_nothing(toy_file, tmp_path, capsys,
                                             monkeypatch):
    # a search stopped by its node budget, and one that a span elimination
    # cannot decide ends: exit 1, the status named on stderr, no plan written
    from feedincap import analysis, milp
    from feedincap.milp import MILPSolution
    stubs = (("node_limit", analysis, "solve_milp",
              lambda mip, cfg: MILPSolution("node_limit", None, None, float("inf"), 100_000)),
             ("undecided", milp, "_eliminate", lambda *args: ("undecided", None)))
    for status, module, name, stub in stubs:
        with monkeypatch.context() as m:
            m.setattr(module, name, stub)
            rc = cli.main(["plan", toy_file, "--engine", "milp",
                           "--outdir", str(tmp_path)])
        assert rc == 1, status
        assert f"milp returned {status}" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()


def test_plan_milp_without_a_feasible_factor_is_infeasible(tmp_path, capsys):
    p = tmp_path / "overload.json"
    # 8 MW of demand behind a 5 MW line, and no sun to offset it at any scal
    p.write_text(serialize_grid(two_bus(demand_mw=8.0, profile=(0.0,))))
    rc = cli.main(["plan", str(p), "--engine", "milp", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "infeasible at scal = 0: the MILP finds no expansion factor that meets " \
        "every network bound" in capsys.readouterr().out
    assert not (tmp_path / "plan.json").exists()


def test_plan_milp_at_zero_headroom_reports_positive_zero(tmp_path, capsys):
    # 5 MW of existing PV fills the 5 MW line, so nothing can be added
    grid = two_bus(p_max=1.0, s_max=5.0)
    grid = replace(grid, gens=grid.gens + (
        GenUnit("f1", "n1", "pv_existing_fixed", 5.0, (1.0,)),))
    p = tmp_path / "full.json"
    p.write_text(serialize_grid(grid))
    rc = cli.main(["plan", str(p), "--fl", "1.0", "--engine", "milp",
                   "--outdir", str(tmp_path / "plan")])
    assert rc == 0
    assert "scal* = 0.000000  (+0.000 MW of new capacity)" in capsys.readouterr().out
    text = (tmp_path / "plan" / "plan.json").read_text()
    for key in ("scal_star", "milp_scal", "added_capacity_mw"):
        assert f'"{key}": 0.0,' in text, key
    rc = cli.main(["sweep", str(p), "--fl-values", "1.0", "--cases", "a",
                   "--mults", "1.0", "--engine", "milp", "--csv",
                   "--outdir", str(tmp_path / "sweep")])
    assert rc == 0
    row = (tmp_path / "sweep" / "sweep.csv").read_text().split("\n")[1]
    assert row.split(",")[3:5] == ["0.0", "0.0"]


@pytest.mark.parametrize("engine", ["oracle", "milp", "both"])
@pytest.mark.parametrize("change", [("kind", "pv_existing_fixed"), ("profile", [0.0])],
                         ids=["no_candidate", "candidate_without_sun"])
def test_plan_without_candidate_production_is_an_error(change, engine, tmp_path, capsys):
    # scal moves nothing, so the question has no answer
    doc = json.loads((FIXTURES / "example.json").read_text())
    doc["generators"][0][change[0]] = change[1]
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(doc))
    rc = cli.main(["plan", str(p), "--fl", "0.7", "--engine", engine,
                   "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: no candidate PV produces")
    assert not (tmp_path / "plan.json").exists()


@pytest.mark.parametrize("engine", ["oracle", "both"])
def test_plan_document_is_the_sweep_cell(engine, toy_file, tmp_path):
    rc = cli.main(["plan", toy_file, "--fl", "0.7", "--case", "a",
                   "--engine", engine, "--outdir", str(tmp_path / "plan")])
    assert rc == 0
    rc = cli.main(["sweep", toy_file, "--fl-values", "0.7", "--cases", "a",
                   "--mults", "1.0", "--engine", engine, "--json",
                   "--outdir", str(tmp_path / "sweep")])
    assert rc == 0
    plan = json.loads((tmp_path / "plan" / "plan.json").read_text())
    (cell,) = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["cells"]
    assert plan["hours"] == [0]
    assert set(plan) - {"schema_version", "hours"} == set(cell) - {"error"}
    for key in set(plan) - {"schema_version", "hours"}:
        assert plan[key] == cell[key], key


def test_plan_annual_milp_is_usage_error(example_file, tmp_path, capsys):
    rc = cli.main(["plan", example_file, "--mode", "annual",
                   "--outdir", str(tmp_path)])
    assert rc == 2
    assert "oracle" in capsys.readouterr().err


def test_plan_scenario_file_with_inline_override(toy_file, tmp_path):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"fl": 0.9, "case": "a"}))
    rc = cli.main(["plan", toy_file, "--scenario", str(sc), "--fl", "1.0",
                   "--outdir", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads((tmp_path / "o" / "plan.json").read_text())
    assert doc["fl"] == 1.0          # the flag beats the file
    assert doc["scal_star"] == pytest.approx(5.0, abs=1e-6)


def test_plan_bad_fl_flag(toy_file, capsys):
    assert cli.main(["plan", toy_file, "--fl", "1.5"]) == 2
    assert "fl must lie" in capsys.readouterr().err


# -- sweep -------------------------------------------------------------------


@pytest.mark.parametrize("flag,value,message", [
    ("--fl-values", "1.5", "fl must lie"),
    ("--cases", "c", "case must be"),
    ("--mults", "-1", "demand_multiplier"),
    ("--mults", "nan", "demand_multiplier must be finite"),
    ("--fl-values", ",", "fl_values must not be empty"),
    ("--cases", ",", "cases must not be empty"),
    ("--mults", ",", "demand_multipliers must not be empty"),
    ("--fl-values", "0.7,0.7", "fl_values must not repeat"),
    ("--cases", "a,b,a", "cases must not repeat"),
    ("--mults", "1.0,1", "demand_multipliers must not repeat"),
])
def test_sweep_bad_cell_value_is_usage_error(flag, value, message, toy_file, tmp_path,
                                             capsys):
    assert cli.main(["sweep", toy_file, flag, value,
                     "--outdir", str(tmp_path / "rep")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_sweep_defaults_on_urban(tmp_path, capsys):
    p = tmp_path / "urban.json"
    p.write_text(serialize_grid(synth_grid("urban_mv")))
    rc = cli.main(["sweep", str(p), "--outdir", str(tmp_path / "rep")])
    assert rc == 0
    rows = (tmp_path / "rep" / "sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 25
    assert rows[0].startswith("fl,case,demand_multiplier,scal_star")
    assert "24/24 cells solved" in capsys.readouterr().out


def test_sweep_with_a_failed_cell_exits_1(tmp_path, capsys):
    # a candidate that never produces leaves scal without a maximum
    doc = json.loads(serialize_grid(example_grid_7kwp()))
    doc["generators"][-1]["profile"] = [0.0]
    (tmp_path / "grid.json").write_text(json.dumps(doc))
    assert cli.main(["sweep", str(tmp_path / "grid.json"), "--fl-values", "1.0",
                     "--cases", "a", "--mults", "1.0", "--outdir", str(tmp_path / "rep")]) == 1
    out = capsys.readouterr().out
    assert "cell fl=1.0 case=a x1.0 failed: no candidate PV produces" in out
    assert out.endswith("0/1 cells solved; FAILURES above\n")


def test_sweep_repeat_byte_identical(toy_file, tmp_path):
    for sub in ("one", "two"):
        rc = cli.main(["sweep", toy_file, "--fl-values", "1.0,0.7",
                       "--cases", "a", "--mults", "1.0",
                       "--outdir", str(tmp_path / sub)])
        assert rc == 0
    for name in ("sweep.csv", "sweep.json", "sweep.svg"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_sweep_format_selection(toy_file, tmp_path):
    rc = cli.main(["sweep", toy_file, "--fl-values", "1.0", "--cases", "a",
                   "--mults", "1.0", "--csv", "--outdir", str(tmp_path / "sel")])
    assert rc == 0
    assert (tmp_path / "sel" / "sweep.csv").exists()
    assert not (tmp_path / "sel" / "sweep.json").exists()
    assert not (tmp_path / "sel" / "sweep.svg").exists()


def test_sweep_monotonicity_violation_named(toy_file, tmp_path, capsys,
                                            monkeypatch):
    from feedincap import analysis
    monkeypatch.setattr(analysis, "check_monotonicity",
                        lambda result: ["fl 1.0 beats fl 0.7 at case a, x1.0"])
    rc = cli.main(["sweep", toy_file, "--fl-values", "1.0,0.7", "--cases", "a",
                   "--mults", "1.0", "--outdir", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "monotonicity violation: fl 1.0 beats fl 0.7" in out


def test_sweep_annual_milp_usage_error(toy_file, tmp_path, capsys):
    rc = cli.main(["sweep", toy_file, "--mode", "annual", "--engine", "milp",
                   "--outdir", str(tmp_path)])
    assert rc == 2


# -- simulate ----------------------------------------------------------------


def test_simulate_reference_point(example_file, tmp_path, capsys):
    rc = cli.main(["simulate", example_file, "--scal", "1.0", "--fl", "0.7",
                   "--outdir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["curtailed_mwh"] == pytest.approx(0.7e-3, abs=1e-12)
    assert doc["generated_mwh"] == pytest.approx(6.3e-3, abs=1e-12)
    assert doc["curtailed_share"] == pytest.approx(0.1, abs=1e-9)
    out = capsys.readouterr().out
    assert "= generated" in out and "+ curtailed" in out


def test_simulate_violations_exit_nonzero(toy_file, tmp_path, capsys):
    rc = cli.main(["simulate", toy_file, "--scal", "8.0", "--fl", "1.0",
                   "--outdir", str(tmp_path)])
    assert rc == 1
    assert "violated in 1 hour" in capsys.readouterr().out
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["violation_hours"] == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_non_finite_energy_exits_without_a_file(tmp_path, capsys):
    # a finite scal whose energy totals overflow: no Infinity in a JSON file
    rc = cli.main(["simulate", str(FIXTURES / "urban_mv.json"), "--fl", "0.7",
                   "--scal", "1.7e308", "--outdir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: energy totals must be finite")
    assert not (tmp_path / "simulate.json").exists()


def test_simulate_negative_scal(example_file, capsys):
    assert cli.main(["simulate", example_file, "--scal", "-1"]) == 2


def test_simulate_without_generators_reports_zero_energy(tmp_path):
    (tmp_path / "grid.json").write_text(serialize_grid(chain3()))
    assert cli.main(["simulate", str(tmp_path / "grid.json"), "--scal", "1",
                     "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "simulate.json").read_text()
    for key in ("available_mwh", "generated_mwh", "curtailed_mwh", "curtailed_share"):
        assert f'"{key}": 0.0,' in text


def test_simulate_reports_the_annual_plan_energy(tmp_path):
    lv = str(FIXTURES / "lv.json")
    assert cli.main(["plan", lv, "--mode", "annual", "--engine", "oracle", "--fl", "0.7",
                     "--outdir", str(tmp_path)]) == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert cli.main(["simulate", lv, "--fl", "0.7", "--scal", repr(plan["scal_star"]),
                     "--outdir", str(tmp_path)]) == 0
    sim = json.loads((tmp_path / "simulate.json").read_text())
    assert {k: sim[k] for k in plan["energy"]} == plan["energy"]


@pytest.mark.parametrize("command,flags", [
    ("plan", ["--engine", "oracle", "--demand-mult", "nan"]),
    ("simulate", ["--scal", "nan"]),
    ("simulate", ["--scal", "inf"]),
])
def test_non_finite_values_are_usage_errors(command, flags, example_file, tmp_path,
                                            capsys):
    assert cli.main([command, example_file, *flags,
                     "--outdir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_non_finite_scenario_value_is_usage_error(example_file, tmp_path, capsys):
    sc = tmp_path / "scenario.json"
    sc.write_text('{"demand_multiplier": NaN}')
    assert cli.main(["plan", example_file, "--scenario", str(sc),
                     "--outdir", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("demand_mult", 1.5),
                                       ("costs", {"export_eur_mwh": 0.0})])
def test_unknown_scenario_key_is_usage_error(key, value, example_file, tmp_path, capsys):
    # a misspelt or retired key must not plan with the default it meant to set
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"fl": 0.7, key: value}))
    assert cli.main(["plan", example_file, "--scenario", str(sc),
                     "--outdir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: bad scenario file: unknown scenario keys: {key}\n"
    assert not (tmp_path / "o").exists()


# -- synth -------------------------------------------------------------------


def test_synth_round_trip(tmp_path):
    out = tmp_path / "rural.json"
    rc = cli.main(["synth", "--kind", "rural_mv", "--seed", "1",
                   "--hours", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == serialize_grid(synth_grid("rural_mv", seed=1, hours=1))


def test_synth_unknown_kind(capsys):
    assert cli.main(["synth", "--kind", "orbit"]) == 2


def test_synth_without_hours_is_a_usage_error(tmp_path, capsys):
    # one loop, not a parametrize, so the test keeps its id
    out = tmp_path / "example.json"
    for hours, message in [("0", "hours must be >= 1"), ("8761", "hours must be at most 8760")]:
        assert cli.main(["synth", "--kind", "example", "--hours", hours, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FEEDINCAP_OUTDIR", str(tmp_path / "envout"))
    rc = cli.main(["synth", "--kind", "example"])
    assert rc == 0
    assert (tmp_path / "envout" / "example.json").exists()
