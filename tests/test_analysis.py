import json
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import feedincap.analysis as analysis
import feedincap.formulation as formulation
import feedincap.oracle as oracle
from feedincap.analysis import (
    CSV_COLUMNS,
    AnalysisError,
    CellResult,
    EnergyAccount,
    EnergyBalanceError,
    SweepSpec,
    SweepResult,
    cell_doc,
    check_monotonicity,
    emit_report,
    energy_account,
    find_bottlenecks,
    run_sweep,
)
from feedincap.formulation import Scenario, build_problem, extract_solution
from feedincap.fixtures import example_grid_7kwp
from feedincap.grid import Bus, GenUnit, Grid, Line, parse_grid
from feedincap.milp import SolverConfig, solve_milp
from feedincap.network import build_linear_model
from feedincap.oracle import annual_simulate, max_scal_bisection, oracle_plan, search_limits

from util import active_row_bounds, two_bus

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


# -- SweepSpec ---------------------------------------------------------------


def test_default_spec_has_24_cells():
    assert sum(1 for _ in SweepSpec().scenarios()) == 24


def test_spec_rejects_bad_engine_and_annual_milp():
    with pytest.raises(AnalysisError):
        SweepSpec(engine="quantum")
    with pytest.raises(AnalysisError):
        SweepSpec(mode="annual", engine="milp")
    SweepSpec(mode="annual", engine="oracle")   # fine


def test_integer_axis_values_report_as_floats(tmp_path):
    # the CLI parses 1 as 1.0; a library spec written with ints must report the same
    grid = example_grid_7kwp()
    for sub, fl, mult in (("ints", (1, 0.7), (1,)), ("floats", (1.0, 0.7), (1.0,))):
        spec = SweepSpec(fl_values=fl, cases=("a",), demand_multipliers=mult)
        assert spec.fl_values == (1.0, 0.7) and spec.demand_multipliers == (1.0,)
        emit_report(run_sweep(grid, spec), tmp_path / sub, formats=("csv", "json"))
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()
    assert (tmp_path / "ints" / "sweep.csv").read_text().splitlines()[1].startswith("1.0,a,1.0,")


# -- energy accounts ---------------------------------------------------------


def test_account_identity_enforced():
    with pytest.raises(EnergyBalanceError):
        EnergyAccount(available_mwh=1.0, generated_mwh=0.5, curtailed_mwh=0.1,
                      imports_mwh=0.0, exports_mwh=0.0)


def test_account_totals_must_be_finite():
    inf = float("inf")
    with pytest.raises(EnergyBalanceError, match="finite"):
        EnergyAccount(inf, inf, 0.0, 0.0, 0.0)
    with pytest.raises(EnergyBalanceError, match="finite"):
        EnergyAccount(1.0, 1.0, 0.0, 0.0, 0.0, demand_mwh=float("nan"))


def test_account_all_zero():
    acc = EnergyAccount(0.0, 0.0, 0.0, 0.0, 0.0)
    assert acc.curtailed_share == 0.0


def test_account_reference_share():
    plan = oracle_plan(example_grid_7kwp(), Scenario(fl=0.7), scal=1.0)
    acc = energy_account(plan)
    assert acc.available_mwh == pytest.approx(7e-3, abs=1e-12)
    assert acc.curtailed_mwh == pytest.approx(0.7e-3, abs=1e-12)
    assert acc.generated_mwh == pytest.approx(6.3e-3, abs=1e-12)
    assert acc.curtailed_share == pytest.approx(0.1, abs=1e-9)
    assert acc.exports_mwh == pytest.approx(4.9e-3, abs=1e-12)


def test_annual_account_carries_demand(lv):
    acc = annual_simulate(lv, Scenario(fl=0.7, case="b"), 0.2).account
    demand = sum(sum(b.demand_p) for b in lv.buses) * lv.hour_duration_h
    assert acc.demand_mwh == pytest.approx(demand, rel=1e-12)
    assert acc.generated_mwh + acc.curtailed_mwh == pytest.approx(
        acc.available_mwh, rel=1e-9)


# -- bottlenecks -------------------------------------------------------------


def test_bottlenecks_empty_when_only_the_domain_bound_binds():
    grid = two_bus(s_max=float("inf"), vmin=0.01, vmax=100.0)
    plan = oracle_plan(grid, Scenario(fl=1.0), scal=1000.0)
    report = find_bottlenecks(plan, build_linear_model(grid))
    assert report.binding == ()
    assert report.labels() == ()


def test_bottlenecks_single_thermal_line():
    grid = two_bus()
    scenario = Scenario(fl=1.0)
    plan = oracle_plan(grid, scenario, max_scal_bisection(grid, scenario).scal_star)
    report = find_bottlenecks(plan, build_linear_model(grid))
    assert report.labels() == ("thermal:sub-n1",)
    assert report.worst_line == "sub-n1"
    assert report.min_thermal_headroom_mw == pytest.approx(0.0, abs=1e-3)


def test_bottlenecks_rural_voltage_ranking(rural):
    scenario = Scenario(fl=1.0, case="a")
    search = max_scal_bisection(rural, scenario)
    plan = oracle_plan(rural, scenario, scal=search.scal_star)
    report = find_bottlenecks(plan, build_linear_model(rural))
    v_high = [b for b in report.binding if b.kind == "v_high"]
    assert v_high, "voltage-calibrated fixture must bind on v_high"
    # the reported worst bus is the one the raw voltage ranking puts on top
    k, i = np.unravel_index(np.argmax(plan.voltages_pu2), plan.voltages_pu2.shape)
    assert report.worst_bus == plan.bus_order[i]
    assert any(b.element == plan.bus_order[i] for b in v_high)


# -- run_sweep ---------------------------------------------------------------


def test_sweep_both_engines_on_toy():
    grid = two_bus(demand_mw=0.2)
    spec = SweepSpec(engine="both")
    result = run_sweep(grid, spec)
    assert len(result.cells) == 24
    assert result.failed_cells == []
    assert [c.key for c in result.cells] == sorted(c.key for c in result.cells)
    for c in result.cells:
        assert c.status == "ok"
        assert c.deviation <= 1e-9 * (1.0 + c.scal_star)
        assert c.account is not None and c.binding is not None
    assert check_monotonicity(result) == []


@pytest.mark.parametrize("engine", ["milp", "both"])
def test_a_milp_cell_aggregates_once(engine, monkeypatch):
    real, calls = formulation.node_aggregates, []

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    for module in (analysis, formulation, oracle):      # every module that calls it
        monkeypatch.setattr(module, "node_aggregates", counting)
    grid = example_grid_7kwp()
    cell = analysis.run_cell(grid, Scenario(fl=0.7), engine, SolverConfig(),
                             build_linear_model(grid))
    assert cell.status == "ok" and len(calls) == 1
    # a sweep aggregates once per (case, demand multiplier), for every feed-in limit
    calls.clear()
    result = run_sweep(two_bus(demand_mw=0.2), SweepSpec(engine=engine))
    assert [c.status for c in result.cells] == ["ok"] * 24
    assert len(calls) == 2 * 3


def test_a_sweep_keeps_one_aggregate_alive(monkeypatch):
    # each (case, demand multiplier) aggregate is dropped before the next is built
    real, alive = formulation.node_aggregates, []

    def recording(*args, **kw):
        assert all(ref() is None for ref in alive), "an earlier aggregate is still alive"
        agg = real(*args, **kw)
        alive.append(weakref.ref(agg))
        return agg

    monkeypatch.setattr(analysis, "node_aggregates", recording)
    for engine in ("oracle", "milp", "both"):
        alive.clear()
        result = run_sweep(two_bus(demand_mw=0.2), SweepSpec(engine=engine))
        assert [c.status for c in result.cells] == ["ok"] * 24
        assert len(alive) == 2 * 3
    alive.clear()
    result = run_sweep(two_bus(demand_mw=0.2, profile=(1.0, 0.5, 0.2)),
                       SweepSpec(fl_values=(1.0, 0.7), mode="annual"))
    assert [c.status for c in result.cells] == ["ok"] * 12 and len(alive) == 2 * 3


def _hex_floats(doc):
    """doc with every float as its hex string, so == compares bits."""
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, dict):
        return {k: _hex_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_hex_floats(v) for v in doc]
    return doc


def _sweep_grid(name: str) -> Grid:
    """A shipped fixture, or "two_hour": a grid whose worst-case hour is 0 at
    demand x1.0 and 1 at x1.1 and x1.2."""
    if name != "two_hour":
        return parse_grid((FIXTURES / f"{name}.json").read_text())
    return Grid(base_mva=1.0, base_kv=20.0,
                buses=(Bus("sub", True, (0.0, 0.0), (0.0, 0.0), vmin=0.5, vmax=1.5),
                       Bus("n1", False, (0.2, 0.0), (0.0, 0.0), vmin=0.5, vmax=1.5)),
                lines=(Line("sub", "n1", 1e-4, 1e-4, 0.5, 1.0),),
                gens=(GenUnit("g1", "n1", "pv_candidate", 1.0, (1.0, 0.79)),))


@pytest.mark.parametrize("name,spec", [
    *((name, SweepSpec()) for name in ("example", "urban_mv", "rural_mv", "hybrid_mv", "lv",
                                       "two_hour")),
    ("lv", SweepSpec(fl_values=(1.0, 0.7), mode="annual")),
])
def test_a_sweep_cell_is_its_plan(name, spec):
    # each cell, planned from its group's shared aggregate and hours, is run_cell
    # on an aggregate of its own, handed the same grouped search
    grid = _sweep_grid(name)
    cfg, model = SolverConfig(), build_linear_model(grid)
    result = run_sweep(grid, spec, cfg)
    assert [c.status for c in result.cells] == ["ok"] * len(result.cells)
    cells = {(c.fl, c.case, c.demand_multiplier): c for c in result.cells}
    scenarios = list(spec.scenarios())
    for lo in range(0, len(scenarios), len(spec.fl_values)):
        group = scenarios[lo:lo + len(spec.fl_values)]
        searches = search_limits(grid, group[0], spec.fl_values, cfg, model=model)
        for scenario, search in zip(group, searches):
            cell = analysis.run_cell(grid, scenario, "oracle", cfg, model, search=search)
            swept = cells[(scenario.fl, scenario.case, scenario.demand_multiplier)]
            assert swept.hours == cell.hours
            assert _hex_floats(cell_doc(swept)) == _hex_floats(cell_doc(cell))


@pytest.mark.parametrize("name", ["lv", "two_hour"])
def test_a_default_sweep_resolves_the_snapshot_hour_once_per_multiplier(name, monkeypatch):
    # the worst-case hour depends on the demand multiplier, not on the case
    real, calls = formulation.worst_case_hour, []

    def counting(grid, scenario):
        calls.append(scenario.demand_multiplier)
        return real(grid, scenario)

    monkeypatch.setattr(formulation, "worst_case_hour", counting)
    grid = _sweep_grid(name)
    result = run_sweep(grid)
    assert [c.status for c in result.cells] == ["ok"] * 24
    assert sorted(calls) == [1.0, 1.1, 1.2]
    for c in result.cells:
        assert c.hours == (real(grid, Scenario(demand_multiplier=c.demand_multiplier)),)
    if name == "two_hour":
        assert {c.demand_multiplier: c.hours for c in result.cells} == {
            1.0: (0,), 1.1: (1,), 1.2: (1,)}


def test_sweep_cell_isolation(monkeypatch):
    # a failure in a cell's own stage fails that cell only
    real_plan = analysis.oracle_plan

    def flaky_plan(grid, scenario, scal, **kw):
        if scenario.fl == 0.9:
            raise RuntimeError("boom")
        return real_plan(grid, scenario, scal, **kw)

    monkeypatch.setattr(analysis, "oracle_plan", flaky_plan)
    result = run_sweep(two_bus(), SweepSpec(cases=("a",),
                                            demand_multipliers=(1.0,)))
    assert len(result.cells) == 4
    failed = result.failed_cells
    assert [c.fl for c in failed] == [0.9]
    assert "boom" in failed[0].error
    assert all(c.status == "ok" for c in result.cells if c.fl != 0.9)

    # a failing grouped search fails the cells of its own (case, multiplier) only
    monkeypatch.setattr(analysis, "oracle_plan", real_plan)
    real_search = analysis.search_limits

    def flaky_search(grid, scenario, fls, cfg=None, **kw):
        if (scenario.case, scenario.demand_multiplier) == ("b", 1.1):
            raise RuntimeError("bang")
        return real_search(grid, scenario, fls, cfg, **kw)

    monkeypatch.setattr(analysis, "search_limits", flaky_search)
    result = run_sweep(two_bus(demand_mw=0.2), SweepSpec())
    assert len(result.cells) == 24
    failed = result.failed_cells
    assert sorted(c.fl for c in failed) == [0.7, 0.8, 0.9, 1.0]
    assert all((c.case, c.demand_multiplier) == ("b", 1.1) and "bang" in c.error
               for c in failed)
    assert all(c.status == "ok" for c in result.cells if c not in failed)


def test_sweep_annual_mode(lv):
    spec = SweepSpec(fl_values=(0.7,), cases=("a",), demand_multipliers=(1.0,),
                     mode="annual")
    result = run_sweep(lv, spec)
    (cell,) = result.cells
    assert cell.status == "ok"
    scenario = Scenario(fl=0.7, case="a", mode="annual")
    sim = annual_simulate(lv, scenario, cell.scal_star)
    assert sim.violation_hours == 0
    ref = sim.account
    for name in ("available_mwh", "generated_mwh", "curtailed_mwh",
                 "imports_mwh", "exports_mwh"):
        assert getattr(cell.account, name) == getattr(ref, name), name


@pytest.mark.parametrize("name,fl,case", [("hybrid", 0.7, "a"),
                                          ("urban", 1.0, "a"), ("urban", 1.0, "b")])
def test_engines_agree_where_the_milp_used_to_branch(name, fl, case, request):
    grid = request.getfixturevalue(name)
    cfg = SolverConfig()
    cell = analysis.run_cell(grid, Scenario(fl=fl, case=case), "both", cfg,
                             build_linear_model(grid))
    assert cell.status == "ok"
    assert 0.0 <= cell.milp_scal <= cfg.scal_max
    assert cell.deviation <= 1e-9 * (1.0 + cell.oracle_scal)


@pytest.mark.parametrize("case", ["a", "b"])
def test_engines_agree_on_the_lv_request_that_branches(case, monkeypatch):
    # fixtures/lv.json at FL 0.7 leaves 130 triggers free at its worst hour
    solved = []

    def recording(mip, cfg):
        solved.append(solve_milp(mip, cfg))
        return solved[-1]

    monkeypatch.setattr(analysis, "solve_milp", recording)
    grid = parse_grid((FIXTURES / "lv.json").read_text())
    cell = analysis.run_cell(grid, Scenario(fl=0.7, case=case), "both", SolverConfig(),
                             build_linear_model(grid))
    assert cell.status == "ok"
    assert cell.deviation <= 1e-9 * (1.0 + cell.oracle_scal)
    (sol,) = solved
    assert (sol.status, sol.gap) == ("optimal", 0.0)


def test_a_milp_without_a_feasible_factor_is_infeasible_at_zero():
    # 8 MW of demand behind a 5 MW line, and no sun to offset it at any scal
    grid = two_bus(demand_mw=8.0, profile=(0.0,))
    cell = analysis.run_cell(grid, Scenario(), "milp", SolverConfig(),
                             build_linear_model(grid))
    assert (cell.status, cell.milp_scal) == ("infeasible_at_zero", None)


def test_a_grid_without_lines_is_refused_as_no_lines():
    # built in Python, so validate_grid never saw it: one slack bus with a candidate
    grid = Grid(base_mva=1.0, base_kv=20.0, buses=(Bus("sub", True, (0.0,), (0.0,)),),
                lines=(), gens=(GenUnit("c", "sub", "pv_candidate", 1.0, (1.0,)),))
    for engine in ("oracle", "milp", "both"):
        with pytest.raises(AnalysisError, match="^no_lines: "):
            analysis.run_cell(grid, Scenario(fl=0.7), engine, SolverConfig(),
                              build_linear_model(grid))
    result = run_sweep(grid)
    assert len(result.failed_cells) == len(result.cells) == 24
    assert all(c.error.startswith("no_lines: ") for c in result.cells)


def test_milp_cell_takes_one_node_and_meets_every_row_on_every_mv_fixture(request,
                                                                          monkeypatch):
    solved = []

    def recording(mip, cfg):
        solved.append((mip, solve_milp(mip, cfg)))
        return solved[-1][1]

    monkeypatch.setattr(analysis, "solve_milp", recording)
    tol = SolverConfig().feasibility_tol
    for name in ("urban", "rural", "hybrid"):
        grid = request.getfixturevalue(name)
        model = build_linear_model(grid)
        for fl in (1.0, 0.7):
            for case in ("a", "b"):
                cell = analysis.run_cell(grid, Scenario(fl=fl, case=case), "milp",
                                         SolverConfig(), model)
                assert cell.status == "ok"
                mip, sol = solved[-1]
                assert (sol.status, sol.nodes) == ("optimal", 1), (name, fl, case)
                # every row the triggers' values activate
                act = mip.lp.activities(sol.x)
                lo, hi = active_row_bounds(mip, sol.x[list(mip.binaries)])
                assert (act <= hi + tol * (1.0 + np.abs(hi))).all()
                assert (act >= lo - tol * (1.0 + np.abs(lo))).all()
    assert len(solved) == 12


@pytest.mark.parametrize("name", ["urban", "lv"])
def test_the_milp_engine_never_runs_the_oracle_search(name, request, monkeypatch):
    grid = request.getfixturevalue(name)
    both = {c.key: c for c in run_sweep(grid, SweepSpec(engine="both")).cells}

    def refuse(*args, **kw):
        raise AssertionError("the milp engine ran the oracle's search")

    monkeypatch.setattr(analysis, "max_scal_bisection", refuse)
    monkeypatch.setattr(analysis, "search_limits", refuse)
    cells = run_sweep(grid, SweepSpec(engine="milp")).cells
    assert len(cells) == 24
    for cell in cells:
        ref = both[cell.key]
        assert cell.status == ref.status != "error", (cell.key, cell.error)
        assert cell.scal_star == ref.milp_scal, cell.key
        if ref.status == "ok":
            assert abs(cell.scal_star - ref.scal_star) <= 1e-9 * (1.0 + ref.scal_star)
    cell = analysis.run_cell(grid, Scenario(fl=0.7, case="b"), "milp", SolverConfig(),
                             build_linear_model(grid))
    assert cell.status == "ok" and cell.scal_star == both[cell.key].milp_scal


# -- bus order ---------------------------------------------------------------


def _slack_in_middle(grid):
    slack, *rest = grid.buses
    assert slack.is_slack
    mid = len(rest) // 2
    return replace(grid, buses=(*rest[:mid], slack, *rest[mid:]))


@pytest.mark.parametrize("fl,case", [(0.7, "b"), (1.0, "a")])
@pytest.mark.parametrize("name", ["urban", "rural", "example"])
def test_slack_bus_may_sit_anywhere_in_the_document(name, fl, case, request):
    grid = example_grid_7kwp() if name == "example" else request.getfixturevalue(name)
    scenario = Scenario(fl=fl, case=case)
    first, middle = (analysis.run_cell(g, scenario, "oracle", SolverConfig(),
                                       build_linear_model(g))
                     for g in (grid, _slack_in_middle(grid)))
    assert first.status == middle.status == "ok"
    assert middle.oracle_scal == first.oracle_scal
    for total in ("available_mwh", "generated_mwh", "curtailed_mwh"):   # unit by unit
        assert getattr(middle.account, total) == getattr(first.account, total), total
    for total in ("imports_mwh", "exports_mwh"):    # summed over buses in document order
        assert getattr(middle.account, total) == pytest.approx(
            getattr(first.account, total), rel=1e-12, abs=0.0), total
    assert middle.binding.labels() == first.binding.labels()


@pytest.mark.parametrize("fl,case", [(0.7, "b"), (1.0, "a")])
def test_milp_answer_ignores_bus_order(fl, case):
    grid = example_grid_7kwp()
    scenario = Scenario(fl=fl, case=case)
    scal = []
    for g in (grid, replace(grid, buses=grid.buses[::-1])):
        inst = build_problem(g, scenario)
        scal.append(extract_solution(inst, solve_milp(inst.mip)))
    assert scal[1] == scal[0]


# -- monotonicity checker ----------------------------------------------------


def _cell(fl, case, mult, scal, status="ok"):
    return CellResult(fl=fl, case=case, demand_multiplier=mult, status=status,
                      engine="oracle",
                      scal_star=None if status != "ok" else scal)


def test_monotonicity_flags_fl_inversion():
    result = SweepResult(SweepSpec(), [
        _cell(1.0, "a", 1.0, 5.0),
        _cell(0.7, "a", 1.0, 3.0),
    ])
    bad = check_monotonicity(result)
    assert len(bad) == 1 and "fl 1.0" in bad[0]


def test_monotonicity_ranks_infeasible_below_everything():
    result = SweepResult(SweepSpec(), [
        _cell(1.0, "a", 1.0, 2.0),
        _cell(0.7, "a", 1.0, None, status="infeasible_at_zero"),
    ])
    assert len(check_monotonicity(result)) == 1


def test_monotonicity_accepts_clean_orderings():
    result = SweepResult(SweepSpec(), [
        _cell(1.0, "a", 1.0, 2.0), _cell(0.7, "a", 1.0, 3.0),
        _cell(1.0, "b", 1.0, 2.5), _cell(0.7, "b", 1.0, 3.5),
        _cell(1.0, "a", 1.2, 2.2), _cell(0.7, "a", 1.2, 3.2),
    ])
    assert check_monotonicity(result) == []


def test_monotonicity_flags_case_and_demand():
    result = SweepResult(SweepSpec(), [
        _cell(1.0, "a", 1.0, 2.0), _cell(1.0, "b", 1.0, 1.0),
        _cell(1.0, "a", 1.2, 0.5),
    ])
    msgs = "\n".join(check_monotonicity(result))
    assert "case b under case a" in msgs
    assert "demand x1.2 under x1.0" in msgs


# -- report files ------------------------------------------------------------


def test_emit_report_full_sweep(tmp_path):
    result = run_sweep(two_bus(demand_mw=0.1), SweepSpec())
    files = emit_report(result, tmp_path)
    csv_text = (tmp_path / "sweep.csv").read_text()
    rows = csv_text.strip().split("\n")
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 25
    # floats round-trip through repr
    first = rows[1].split(",")
    assert float(first[3]) == result.cells[0].scal_star
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["schema_version"] == 1
    assert len(doc["cells"]) == 24
    ET.fromstring((tmp_path / "sweep.svg").read_text())
    assert {p.name for p in files} == {"sweep.csv", "sweep.json", "sweep.svg"}


def test_emit_report_empty_sweep(tmp_path):
    result = SweepResult(SweepSpec(), [])      # a spec with an empty axis is refused
    emit_report(result, tmp_path, stem="empty")
    assert (tmp_path / "empty.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
    ET.fromstring((tmp_path / "empty.svg").read_text())
    assert json.loads((tmp_path / "empty.json").read_text())["cells"] == []


def test_emit_report_byte_identical(tmp_path):
    result = run_sweep(two_bus(), SweepSpec(fl_values=(1.0, 0.7), cases=("a",),
                                            demand_multipliers=(1.0,)))
    emit_report(result, tmp_path / "one")
    emit_report(result, tmp_path / "two")
    for name in ("sweep.csv", "sweep.json", "sweep.svg"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_csv_writes_numpy_floats_as_python_floats(tmp_path):
    def csv_for(fl_values, sub):
        spec = SweepSpec(fl_values=fl_values, cases=("a",), demand_multipliers=(1.0,))
        emit_report(run_sweep(example_grid_7kwp(), spec), tmp_path / sub, formats=("csv",))
        return (tmp_path / sub / "sweep.csv").read_bytes()

    assert csv_for(tuple(np.array([1.0, 0.7])), "numpy") == csv_for((1.0, 0.7), "python")


def test_emit_report_infeasible_cell_status_in_binding_column(tmp_path):
    result = SweepResult(SweepSpec(), [
        _cell(0.7, "a", 1.0, None, status="infeasible_at_zero")])
    emit_report(result, tmp_path)
    row = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1]
    assert row.split(",")[-1] == "infeasible_at_zero"
    assert row.split(",")[3] == ""
