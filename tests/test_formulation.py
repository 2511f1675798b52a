from dataclasses import replace

import numpy as np
import pytest

from feedincap.formulation import (
    Costs,
    FormulationError,
    Scenario,
    build_problem,
    curtailment_rule,
    extract_solution,
    node_aggregates,
    scenario_from_json,
    scenario_to_json,
    worst_case_hour,
)
from feedincap.fixtures import example_grid_7kwp, synth_grid
from feedincap.grid import Bus, GenUnit, Grid, Line
from feedincap.milp import SolverConfig, solve_milp

from util import (
    random_radial, reference_network_rows, reference_worst_case_hour, two_bus,
    valid_random_instances,
)


# -- Scenario ----------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(FormulationError):
        Scenario(fl=0.0)
    with pytest.raises(FormulationError):
        Scenario(fl=1.2)
    with pytest.raises(FormulationError):
        Scenario(case="c")
    with pytest.raises(FormulationError):
        Scenario(demand_multiplier=-1.0)
    with pytest.raises(FormulationError):
        Scenario(hours=())
    with pytest.raises(FormulationError, match="must not repeat"):
        Scenario(hours=(0, 0))
    with pytest.raises(FormulationError):
        Scenario(mode="weekly")
    with pytest.raises(FormulationError):
        Scenario(costs=Costs(import_eur_mwh=-1.0))
    for value in (float("nan"), float("inf")):
        with pytest.raises(FormulationError, match="finite"):
            Scenario(demand_multiplier=value)
        for name in ("import_eur_mwh", "export_eur_mwh", "unserved_eur_mwh",
                     "surplus_eur_mwh"):
            with pytest.raises(FormulationError, match="finite"):
                Scenario(costs=Costs(**{name: value}))


def test_scenario_eligibility_sets():
    assert Scenario(case="a").eligible_kinds() == frozenset({"pv_candidate"})
    assert Scenario(case="b").eligible_kinds() == frozenset(
        {"pv_candidate", "pv_existing_scalable", "pv_existing_fixed"})


def test_scenario_json_round_trip():
    sc = Scenario(fl=0.8, case="b", demand_multiplier=1.2, hours=(0, 5, 7),
                  costs=Costs(150.0, 120.0, 9e4, 1e5), mode="snapshot")
    assert scenario_from_json(scenario_to_json(sc)) == sc


def test_scenario_json_defaults():
    sc = scenario_from_json("{}")
    assert sc == Scenario()
    assert sc.costs.import_eur_mwh == 200.0
    assert sc.costs.surplus_eur_mwh == 200_000.0


# -- residual demand and the curtailment rule --------------------------------


def _node_with(demand_mw: float, extra_gens=()) -> Grid:
    grid = two_bus(demand_mw=demand_mw, p_max=7e-3)
    return Grid(grid.base_mva, grid.base_kv, grid.buses, grid.lines,
                grid.gens + tuple(extra_gens))


def _residual_n1(grid: Grid, scenario: Scenario) -> float:
    agg = node_aggregates(grid, scenario, (0,))
    return float(agg.residual[0, agg.bus_order.index("n1")])


def test_residual_is_plain_demand_without_other_generation():
    grid = _node_with(1.4e-3)
    r = _residual_n1(grid, Scenario(fl=0.7))
    assert r == pytest.approx(1.4e-3, abs=1e-15)


def test_residual_clamped_at_zero():
    grid = _node_with(1.0, [GenUnit("w", "n1", "wind", 3.0, (1.0,))])
    assert _residual_n1(grid, Scenario()) == 0.0


def test_residual_depends_on_eligibility_case():
    grid = _node_with(1.0, [GenUnit("old", "n1", "pv_existing_scalable", 2.0, (1.0,))])
    # case a: the existing unit is not curtailable, so it covers the demand
    assert _residual_n1(grid, Scenario(case="a")) == 0.0
    # case b: the unit joins the curtailable pool and stops masking demand
    assert _residual_n1(grid, Scenario(case="b")) == pytest.approx(1.0)


def test_residual_applies_demand_multiplier():
    grid = _node_with(1.0)
    assert _residual_n1(grid, Scenario(demand_multiplier=1.2)) == \
        pytest.approx(1.2)


def test_curtailment_rule_reference_point():
    produced, curtailed = curtailment_rule(7.0, 7.0, 0.7, 1.4)
    assert curtailed == pytest.approx(0.7, abs=1e-12)
    assert produced == pytest.approx(6.3, abs=1e-12)


def test_curtailment_rule_no_demand():
    produced, curtailed = curtailment_rule(7.0, 7.0, 0.7, 0.0)
    assert curtailed == pytest.approx(2.1, abs=1e-12)
    assert produced == pytest.approx(4.9, abs=1e-12)


def test_curtailment_rule_never_bites_at_full_fl():
    for avail, cap in ((5.0, 7.0), (7.0, 7.0), (0.0, 3.0)):
        _, curtailed = curtailment_rule(avail, cap, 1.0, 0.0)
        assert curtailed == 0.0


def test_curtailment_rule_broadcasts():
    avail = np.array([7.0, 3.0, 0.0])
    produced, curtailed = curtailment_rule(avail, 7.0, 0.7, 0.0)
    assert curtailed == pytest.approx([2.1, 0.0, 0.0])
    assert produced == pytest.approx(avail - curtailed)


# -- hour resolution ---------------------------------------------------------


def test_worst_case_hour_maximizes_surplus():
    grid = Grid(
        1.0, 20.0,
        buses=(Bus("sub", True, (0.0,) * 3, (0.0,) * 3),
               Bus("n1", demand_p=(0.5, 0.1, 0.4))),
        lines=(Line("sub", "n1", 1e-3, 1e-3, 5.0),),
        gens=(GenUnit("c", "n1", "pv_candidate", 1.0, (0.2, 0.9, 1.0)),),
    )
    # hour 1: 0.9 - 0.1 = 0.8 beats hour 2: 1.0 - 0.4 = 0.6
    assert worst_case_hour(grid, Scenario()) == 1
    # heavier demand reweights the comparison but hour 1 still wins
    assert worst_case_hour(grid, Scenario(demand_multiplier=1.2)) == 1


def test_worst_case_hour_matches_the_hourly_scan():
    rng = np.random.default_rng(17)
    for _ in range(40):
        grid = random_radial(rng, n_bus=int(rng.integers(2, 20)),
                             hours=int(rng.integers(1, 30)))
        sc = Scenario(demand_multiplier=float(rng.choice([0.0, 1.0, 1.7])))
        got = worst_case_hour(grid, sc)
        assert type(got) is int
        assert got == reference_worst_case_hour(grid, sc)
    # a near-tie within 1e-15 goes to the earliest hour; in the last case hours
    # 1 and 2 stay within 1e-15 of hour 0, and hour 3 (12 ulps up) clears it
    eps = np.spacing(0.5)
    for profile, want in [((0.5, 0.5 + 7 * eps), 0),
                          ((0.3, 0.5, 0.5 + 4 * eps), 1),
                          ((0.5, 0.5 + 4 * eps, 0.5 + 8 * eps, 0.5 + 12 * eps), 3)]:
        grid = two_bus(profile=profile)
        assert worst_case_hour(grid, Scenario()) == want
        assert reference_worst_case_hour(grid, Scenario()) == want
    for _ in range(20):
        steps = rng.uniform(-3 * eps, 12 * eps, 200)
        grid = two_bus(profile=tuple(0.5 + np.cumsum(steps)))
        assert worst_case_hour(grid, Scenario()) == reference_worst_case_hour(grid, Scenario())


def test_hours_out_of_range_rejected():
    with pytest.raises(FormulationError, match="out of range"):
        build_problem(two_bus(), Scenario(hours=(3,)))


# -- problem assembly --------------------------------------------------------


def test_single_bus_structure_and_saturation():
    grid = Grid(1.0, 20.0,
                buses=(Bus("sub", True),),
                lines=(),
                gens=(GenUnit("c", "sub", "pv_candidate", 0.5, (1.0,)),))
    cfg = SolverConfig(scal_max=1000.0)
    inst = build_problem(grid, Scenario(fl=0.7), cfg)
    assert len(inst.binaries) == 1
    sol = solve_milp(inst.mip, cfg)
    plan = extract_solution(inst, sol)
    assert plan.status == "optimal"
    assert plan.scal == pytest.approx(1000.0)


def test_two_bus_thermal_closed_form():
    cfg = SolverConfig()
    grid = two_bus()   # line limit 5 MW, candidate B = 1 MW, CF = 1, D = 0
    inst = build_problem(grid, Scenario(fl=1.0), cfg)
    plan = extract_solution(inst, solve_milp(inst.mip, cfg))
    assert plan.scal == pytest.approx(5.0, abs=1e-6)
    assert plan.added_capacity_mw == pytest.approx(5.0, abs=1e-6)

    inst7 = build_problem(grid, Scenario(fl=0.7), cfg)
    plan7 = extract_solution(inst7, solve_milp(inst7.mip, cfg))
    assert plan7.scal == pytest.approx(5.0 / 0.7, abs=1e-5)


def test_fix_scal_pins_the_variable():
    grid = two_bus()
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=1.0), cfg, fix_scal=2.5)
    plan = extract_solution(inst, solve_milp(inst.mip, cfg))
    assert plan.scal == pytest.approx(2.5)
    assert plan.exports_mw[0] == pytest.approx(2.5, abs=1e-7)


@pytest.mark.parametrize("scal", [float("nan"), float("inf"), -0.1])
def test_fix_scal_must_be_finite_and_non_negative(scal):
    with pytest.raises(FormulationError, match="fix_scal must be finite and >= 0"):
        build_problem(example_grid_7kwp(), Scenario(fl=0.7), fix_scal=scal)


def test_annual_without_fixed_scal_rejected():
    grid = two_bus(profile=(0.2, 1.0))
    with pytest.raises(FormulationError, match="annual"):
        build_problem(grid, Scenario(mode="annual"))


def test_reference_point_through_the_milp():
    grid = example_grid_7kwp()
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=0.7), cfg, fix_scal=1.0)
    plan = extract_solution(inst, solve_milp(inst.mip, cfg))
    assert plan.status == "optimal"
    gid = next(g.id for g in grid.gens if g.kind == "pv_candidate")
    assert plan.curtailment_mw[gid][0] == pytest.approx(0.7e-3, abs=1e-12)
    assert plan.production_mw[gid][0] == pytest.approx(6.3e-3, abs=1e-12)
    assert plan.exports_mw[0] == pytest.approx(4.9e-3, abs=1e-9)
    assert plan.slack_activity == 0.0


def test_extract_infeasible_has_no_values():
    # 1 MW of demand behind a 0.5 MW line and nothing local to serve it
    grid = two_bus(demand_mw=1.0, s_max=0.5, kind="wind", p_max=0.0)
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=1.0), cfg)
    for j in inst.slack_idx[..., :2].ravel():     # pns, eps
        inst.lp.ub[j] = 0.0
    sol = solve_milp(inst.mip, cfg)
    plan = extract_solution(inst, sol)
    assert plan.status == "infeasible"
    assert np.isnan(plan.scal)
    assert plan.objective_eur is None
    assert plan.production_mw == {} and plan.alpha == {}


def test_eq3_residual_on_random_instances():
    rng = np.random.default_rng(17)
    cfg = SolverConfig()
    for _ in range(5):
        grid = random_radial(rng, n_bus=6, hours=2)
        scenario = Scenario(fl=0.8, case="b", hours=(0, 1))
        inst = build_problem(grid, scenario, cfg)
        sol = solve_milp(inst.mip, cfg)
        if sol.status != "optimal":
            continue
        plan = extract_solution(inst, sol)
        for g in grid.gens:
            if g.id not in plan.available_mw:
                continue
            resid = np.abs(plan.production_mw[g.id] + plan.curtailment_mw[g.id]
                           - plan.available_mw[g.id])
            assert np.max(resid, initial=0.0) <= 1e-7


def test_indicator_semantics_realized():
    grid = example_grid_7kwp()
    cfg = SolverConfig()
    scenario = Scenario(fl=0.7)
    inst = build_problem(grid, scenario, cfg, fix_scal=1.0)
    plan = extract_solution(inst, solve_milp(inst.mip, cfg))
    agg = node_aggregates(grid, scenario, inst.hours)
    for (k, bid), a in plan.alpha.items():
        i = agg.bus_order.index(bid)
        p_sum = sum(plan.production_mw[g.id][k] for g in grid.gens if g.bus == bid
                    if g.id in plan.available_mw)
        sp_sum = sum(plan.curtailment_mw[g.id][k] for g in grid.gens if g.bus == bid
                     if g.id in plan.available_mw)
        cap = agg.cap_const[i] + agg.cap_coef[i] * plan.scal
        if a < 0.5:
            assert sp_sum <= 1e-7
        else:
            assert abs(p_sum - scenario.fl * cap - agg.residual[k, i]) <= 1e-6


def test_cost_scaling_leaves_optimum_unchanged():
    grid = two_bus()
    cfg = SolverConfig()
    base = Scenario(fl=0.7)
    scaled = Scenario(fl=0.7, costs=base.costs.scaled(3.5))
    inst_a = build_problem(grid, base, cfg)
    inst_b = build_problem(grid, scaled, cfg)
    plan_a = extract_solution(inst_a, solve_milp(inst_a.mip, cfg))
    plan_b = extract_solution(inst_b, solve_milp(inst_b.mip, cfg))
    assert plan_b.scal == pytest.approx(plan_a.scal, abs=1e-9)
    assert plan_b.alpha == plan_a.alpha
    assert plan_b.objective_eur == pytest.approx(plan_a.objective_eur * 3.5, rel=1e-9)


def test_binary_prefixing_narrows_bounds():
    # candidate at CF 1 with fl 0.5 and no demand: the premise is 0.5 * scal,
    # 0 at scal = 0 and positive beyond, so the trigger row forces alpha = 1
    # over the whole domain and the trigger is pinned on
    grid = two_bus(p_max=1.0)
    inst = build_problem(grid, Scenario(fl=0.5), SolverConfig())
    (j,) = inst.alpha_idx.ravel()
    assert (inst.lp.lb[j], inst.lp.ub[j]) == (1.0, 1.0)


def test_trigger_pinned_at_zero_premise_solves_at_the_root():
    inst = build_problem(two_bus(p_max=1.0), Scenario(fl=0.5), SolverConfig())
    sol = solve_milp(replace(inst.mip, lazy=()), SolverConfig())
    assert sol.status == "optimal"
    assert sol.nodes == 1
    # unseeded, the deferred rows take one more round, again a single root LP
    sol = solve_milp(inst.mip, SolverConfig())
    assert sol.status == "optimal"
    assert (sol.nodes, sol.rounds) == (2, 2)


@pytest.mark.parametrize("name", ["urban", "rural", "hybrid"])
def test_mv_fixtures_leave_no_trigger_free(name, request):
    # no MV trigger premise changes sign over [0, scal_max]
    grid = request.getfixturevalue(name)
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            inst = build_problem(grid, Scenario(fl=fl, case=case), SolverConfig())
            lb, ub = np.asarray(inst.lp.lb), np.asarray(inst.lp.ub)
            assert not (lb[inst.alpha_idx] < ub[inst.alpha_idx]).any(), (fl, case)


def test_network_rows_match_the_bus_by_bus_reference():
    rng = np.random.default_rng(5)
    cases = [(synth_grid("urban_mv"), Scenario(fl=0.7, case="b"))]
    for n in range(6):
        grid = random_radial(rng, n_bus=3 + 2 * n, hours=3)
        cases.append((grid, Scenario(fl=0.8, case="ab"[n % 2], hours=(0, 1, 2))))
    for grid, scenario in cases:
        inst = build_problem(grid, scenario, SolverConfig())
        built = [r for k in range(len(inst.hours))
                 for r in (*inst.thermal_hi_rows[k], *inst.v_hi_rows[k])]
        ref = reference_network_rows(inst)
        assert len(built) == len(ref)
        for r, (coeffs, rhs) in zip(built, ref):
            assert dict(zip(inst.lp.row_idx[r].tolist(), inst.lp.row_coef[r].tolist())) == coeffs
            assert inst.lp.rhs[r] == rhs


def test_big_m_positive_and_matching_nodes():
    grid = example_grid_7kwp()
    inst = build_problem(grid, Scenario(fl=0.7), SolverConfig())
    assert inst.big_m.shape == inst.alpha_idx.shape
    assert (inst.big_m > 0).all()


# -- deferred network rows ---------------------------------------------------


def test_network_rows_are_the_deferred_rows(hybrid):
    inst = build_problem(hybrid, Scenario(fl=0.7, case="b"), SolverConfig())
    names = [inst.lp.row_names[i] for i in inst.mip.lazy]
    kinds = ("thermal_hi[", "thermal_lo[", "v_hi[", "v_lo[")
    assert names and all(n.startswith(kinds) for n in names)
    assert sum(n.startswith(kinds) for n in inst.lp.row_names) == len(names)
    assert set(inst.thermal_hi_rows.ravel()) | set(inst.v_hi_rows.ravel()) <= set(inst.mip.lazy)


def test_row_of_names_the_upper_network_rows(hybrid):
    inst = build_problem(hybrid, Scenario(fl=0.7, case="b"), SolverConfig())
    hour = inst.hours[-1]
    line, bus = inst.model.line_order[-1], inst.model.bus_order[-1]
    assert inst.lp.row_names[inst.row_of("thermal", line, hour)] == f"thermal_hi[{hour},{line}]"
    assert inst.lp.row_names[inst.row_of("v_high", bus, hour)] == f"v_hi[{hour},{bus}]"
    with pytest.raises(ValueError):
        inst.row_of("v_low", bus, hour)


def test_deferring_network_rows_keeps_the_answer():
    # criterion 2's instances: every row at once against the deferred rows
    cfg = SolverConfig()
    for grid, scenario in valid_random_instances(11, 50, cfg, max_bus=10, max_hours=3):
        inst = build_problem(grid, scenario, cfg)
        lazy = solve_milp(inst.mip, cfg)
        full = solve_milp(replace(inst.mip, lazy=()), cfg)
        assert lazy.status == full.status == "optimal"
        assert abs(lazy.objective - full.objective) <= 1e-9 * (1.0 + abs(full.objective))
        s_lazy, s_full = lazy.x[inst.scal_idx], full.x[inst.scal_idx]
        assert abs(s_lazy - s_full) <= 1e-6 * (1.0 + s_full)


@pytest.mark.parametrize("name,case", [("hybrid", "b"), ("rural", "b"), ("urban", "a")])
def test_wrong_or_missing_seed_still_reaches_the_full_lp(name, case, request):
    grid = request.getfixturevalue(name)
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=0.7, case=case), cfg)
    full = solve_milp(replace(inst.mip, lazy=()), cfg)
    s_full = full.x[inst.scal_idx]
    # thermal_hi of the first line does not bind on these requests
    for seed in ((), (int(inst.thermal_hi_rows[0, 0]),)):
        sol = solve_milp(replace(inst.mip, seed=seed), cfg)
        assert sol.status == "optimal" and sol.rounds == 2, seed
        assert sol.rows_kept < inst.lp.n_rows
        assert abs(sol.x[inst.scal_idx] - s_full) <= 1e-6 * (1.0 + s_full), seed
