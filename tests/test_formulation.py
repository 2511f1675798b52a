from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feedincap.formulation import (
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
from feedincap.grid import Bus, GenUnit, Grid, Line, parse_grid
from feedincap.milp import SolverConfig, solve_milp
from feedincap.oracle import max_scal_bisection

from util import (
    dump_lp, random_radial, reference_network_rows, reference_trigger_rows,
    reference_worst_case_hour, row_entries, two_bus, valid_random_instances,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


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
    for value in (float("nan"), float("inf")):
        with pytest.raises(FormulationError, match="finite"):
            Scenario(demand_multiplier=value)


def test_scenario_eligibility_sets():
    assert Scenario(case="a").eligible_kinds() == frozenset({"pv_candidate"})
    assert Scenario(case="b").eligible_kinds() == frozenset(
        {"pv_candidate", "pv_existing_scalable", "pv_existing_fixed"})


def test_scenario_json_round_trip():
    sc = Scenario(fl=0.8, case="b", demand_multiplier=1.2, hours=(0, 5, 7),
                  mode="snapshot")
    assert scenario_from_json(scenario_to_json(sc)) == sc


def test_scenario_json_defaults():
    assert scenario_from_json("{}") == Scenario()


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


@pytest.mark.parametrize("hours", [(-1,), (24,), (0, 24)])
def test_explicit_hours_out_of_range_rejected(hours):
    # explicit hours take the scenario's range check: numpy would plan hour 23
    # for -1 and report -1
    grid = parse_grid((FIXTURES / "lv.json").read_text())
    with pytest.raises(FormulationError, match="out of range"):
        node_aggregates(grid, Scenario(fl=0.7), hours)
    assert node_aggregates(grid, Scenario(fl=0.7), (23,)).hours == (23,)


@pytest.mark.parametrize("case", ["a", "b"])
def test_unit_columns_are_the_generators_at_the_planned_hours(case):
    grid = parse_grid((FIXTURES / "lv.json").read_text())
    agg = node_aggregates(grid, Scenario(case=case, mode="annual"))
    kinds = Scenario(case=case).eligible_kinds()
    gens = grid.gens
    assert agg.unit_at.tolist() == [agg.bus_order.index(g.bus) for g in gens]
    assert agg.unit_elig.tolist() == [g.kind in kinds for g in gens]
    assert agg.unit_cand.tolist() == [g.kind == "pv_candidate" for g in gens]
    assert agg.unit_p_max.tolist() == [g.p_max for g in gens]
    assert agg.unit_cf.flags.c_contiguous and not agg.unit_cf.flags.writeable
    # an hour block's capacity factors are a view whose columns are its hours
    block = agg.hour_block(5, 12)
    assert block.hours == tuple(range(5, 12))
    assert block.unit_cf.base is agg.unit_cf
    for g, cf in zip(gens, block.unit_cf):
        assert np.array_equal(cf, g.profile[list(block.hours)])


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
    assert sol.status == "optimal"
    assert extract_solution(inst, sol) == pytest.approx(1000.0)


def test_two_bus_thermal_closed_form():
    cfg = SolverConfig()
    grid = two_bus()   # line limit 5 MW, candidate B = 1 MW, CF = 1, D = 0
    inst = build_problem(grid, Scenario(fl=1.0), cfg)
    scal = extract_solution(inst, solve_milp(inst.mip, cfg))
    assert scal == pytest.approx(5.0, abs=1e-6)
    assert scal * inst.agg.candidate_base_total == pytest.approx(5.0, abs=1e-6)

    inst7 = build_problem(grid, Scenario(fl=0.7), cfg)
    scal7 = extract_solution(inst7, solve_milp(inst7.mip, cfg))
    assert scal7 == pytest.approx(5.0 / 0.7, abs=1e-5)


def test_fix_scal_pins_the_variable():
    # scal* is 5 under the 5 MW line, so a scal_max of 2.5 binds and pins scal
    grid = two_bus()
    cfg = SolverConfig(scal_max=2.5)
    inst = build_problem(grid, Scenario(fl=1.0), cfg)
    sol = solve_milp(inst.mip, cfg)
    assert extract_solution(inst, sol) == pytest.approx(2.5)
    assert sol.x[inst.prod_idx[0, 0, 0]] == pytest.approx(2.5, abs=1e-7)   # all exported


def test_annual_without_fixed_scal_rejected():
    grid = two_bus(profile=(0.2, 1.0))
    with pytest.raises(FormulationError, match="annual"):
        build_problem(grid, Scenario(mode="annual"))


def test_reference_point_through_the_milp():
    # scal* is far above 1 on this grid, so the scal_max of 1 binds and pins scal
    grid = example_grid_7kwp()
    cfg = SolverConfig(scal_max=1.0)
    inst = build_problem(grid, Scenario(fl=0.7), cfg)
    sol = solve_milp(inst.mip, cfg)
    assert extract_solution(inst, sol) == 1.0
    e = inst.elig_nodes.index(next(g.bus for g in grid.gens if g.kind == "pv_candidate"))
    p, sp = sol.x[inst.prod_idx[0, e]]
    assert sp == pytest.approx(0.7e-3, abs=1e-12)
    assert p == pytest.approx(6.3e-3, abs=1e-12)
    assert p - inst.agg.demand_p.sum() == pytest.approx(4.9e-3, abs=1e-9)   # fed in


def test_extract_infeasible_has_no_values():
    # 1 MW of demand behind a 0.5 MW line and nothing local to serve it
    grid = two_bus(demand_mw=1.0, s_max=0.5, kind="wind", p_max=0.0)
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=1.0), cfg)
    sol = solve_milp(inst.mip, cfg)
    assert sol.status == "infeasible" and sol.x is None and sol.objective is None
    with pytest.raises(FormulationError, match="infeasible"):
        extract_solution(inst, sol)


@pytest.mark.parametrize("rows,bound", [
    ("thermal_rows", "row_hi"), ("v_rows", "row_hi"),
    ("thermal_rows", "row_lo"), ("v_rows", "row_lo"),
], ids=["thermal_hi_rows", "v_hi_rows", "thermal_lo_rows", "v_lo_rows"])
def test_extract_solution_catches_rows_that_disagree_with_the_network(rows, bound):
    # a row whose bound no longer matches the network model encodes a flow or
    # voltage other than the one the solution's injections produce
    inst = build_problem(example_grid_7kwp(), Scenario(fl=0.7), SolverConfig())
    sol = solve_milp(inst.mip)
    assert extract_solution(inst, sol) > 0.0
    getattr(inst.lp, bound)[int(getattr(inst, rows)[0, -1])] += 1e-3
    with pytest.raises(FormulationError, match="deviates from LP rows by 1.000e-03"):
        extract_solution(inst, sol)


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
        scal = extract_solution(inst, sol)
        made = sol.x[inst.prod_idx].sum(axis=2)            # (H, E) p + sp
        # each node's availability from its units in grid.gens, not from agg
        hours = list(inst.hours)
        for g in grid.gens:
            if g.kind in scenario.eligible_kinds() and g.p_max > 0.0:
                base = g.p_max * scal if g.kind == "pv_candidate" else g.p_max
                made[:, inst.elig_nodes.index(g.bus)] -= base * g.profile[hours]
        assert np.max(np.abs(made), initial=0.0) <= 1e-7


def test_indicator_semantics_realized():
    grid = example_grid_7kwp()
    cfg = SolverConfig(scal_max=1.0)      # binds: scal = 1
    scenario = Scenario(fl=0.7)
    inst = build_problem(grid, scenario, cfg)
    sol = solve_milp(inst.mip, cfg)
    scal = extract_solution(inst, sol)
    agg = node_aggregates(grid, scenario, inst.hours)
    for (k, e), a in np.ndenumerate(sol.x[inst.alpha_idx]):
        i = agg.bus_order.index(inst.elig_nodes[e])
        p, sp = sol.x[inst.prod_idx[k, e]]
        cap = agg.cap_const[i] + agg.cap_coef[i] * scal
        if a < 0.5:
            assert sp <= 1e-7
        else:
            assert abs(p - scenario.fl * cap - agg.residual[k, i]) <= 1e-6


def _assert_dispatch_is_the_rule(inst, sol):
    # given scal, each node's p is pinned by its trigger or equals its
    # availability, so it can only be the rule's production at that scal
    agg, scal = inst.agg, extract_solution(inst, sol)
    ei = [agg.bus_order.index(bid) for bid in inst.elig_nodes]
    produced, _ = curtailment_rule(agg.avail_const[:, ei] + agg.avail_coef[:, ei] * scal,
                                   agg.cap_const[ei] + agg.cap_coef[ei] * scal,
                                   inst.scenario.fl, agg.residual[:, ei])
    p = sol.x[inst.prod_idx[:, :, 0]]
    assert p.shape == produced.shape
    assert (np.abs(p - produced) <= 1e-7 * (1.0 + np.abs(p))).all()


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_node_dispatch_is_the_rule_at_the_milp_scal_on_the_fixtures(name):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    cfg = SolverConfig()
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            inst = build_problem(grid, Scenario(fl=fl, case=case), cfg)
            _assert_dispatch_is_the_rule(inst, solve_milp(inst.mip, cfg))


@pytest.mark.parametrize("seed", [11, 23])
def test_node_dispatch_is_the_rule_at_the_milp_scal_on_random_instances(seed):
    cfg = SolverConfig()
    for grid, scenario in valid_random_instances(seed, 40, cfg, max_bus=10, max_hours=3):
        for hours in (scenario.hours, tuple(range(grid.hour_count))):
            inst = build_problem(grid, replace(scenario, hours=hours), cfg)
            _assert_dispatch_is_the_rule(inst, solve_milp(inst.mip, cfg))


@pytest.mark.parametrize("kind,case", [("pv_candidate", "a"), ("pv_candidate", "b"),
                                       ("pv_existing_scalable", "b")])
def test_units_sharing_a_bus_and_profile_build_the_lp_of_one_unit(kind, case):
    # a 1 MW candidate beside the unit lets scal move production in every case
    base = two_bus(demand_mw=0.4, s_max=1.5, profile=(0.3, 0.9, 0.6))
    cand = GenUnit("c1", "n1", "pv_candidate", 1.0, (0.3, 0.9, 0.6))
    one = replace(base, gens=(GenUnit("u", "n1", kind, 2.0, cand.profile), cand))
    two = replace(base, gens=(GenUnit("u1", "n1", kind, 1.0, cand.profile),
                              GenUnit("u2", "n1", kind, 1.0, cand.profile), cand))
    cfg = SolverConfig()
    scenario = Scenario(fl=0.7, case=case, hours=(0, 1, 2))
    (a, sol_a), (b, sol_b) = [(inst, solve_milp(inst.mip, cfg))
                              for inst in (build_problem(g, scenario, cfg) for g in (one, two))]
    # bytes, so that -0.0 and 0.0 differ
    for name in ("indptr", "indices", "data", "row_lo", "row_hi"):
        assert getattr(a.lp, name).tobytes() == getattr(b.lp, name).tobytes(), name
    assert (a.lp.obj, a.lp.lb, a.lp.ub) == (b.lp.obj, b.lp.lb, b.lp.ub)
    assert a.binaries == b.binaries
    assert sol_a.status == sol_b.status == "optimal"
    assert extract_solution(a, sol_a) == extract_solution(b, sol_b)


def test_a_premise_just_below_zero_leaves_the_engines_in_agreement():
    # the line's limit, 0.8 - 2.5e-7 MW, binds at scal = 0.6 - 2.5e-7, where
    # the trigger's premise avail - fl * cap = (0.2 + scal) - 0.5 * (1 + scal)
    # is -1.25e-7: the rule does not curtail there, and the MILP must not either
    grid = replace(two_bus(s_max=0.8 - 2.5e-7),
                   gens=(GenUnit("e", "n1", "pv_existing_scalable", 1.0, (0.2,)),
                         GenUnit("c", "n1", "pv_candidate", 1.0, (1.0,))))
    cfg, scenario = SolverConfig(), Scenario(fl=0.5, case="b")
    inst = build_problem(grid, scenario, cfg)
    scal = extract_solution(inst, solve_milp(inst.mip, cfg))
    star = max_scal_bisection(grid, scenario, cfg).scal_star
    assert abs(scal - star) <= 1e-9 * (1.0 + star)


def test_both_trigger_values_give_the_same_point_at_a_premise_root():
    # the contract solve_milp asks of the rows (milp module doc): fixing scal
    # at a free trigger's premise root, the trigger fixed to 0 and to 1 with
    # the row that value deactivates freed (and left out of binaries, so
    # solve_milp keeps that value and row) gives the same production, node by
    # node and hour by hour
    grid = parse_grid((FIXTURES / "lv.json").read_text())
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=0.7, case="a"), cfg)
    binaries = np.asarray(inst.binaries)
    free = np.flatnonzero(np.asarray(inst.lp.lb)[binaries] < np.asarray(inst.lp.ub)[binaries])
    roots = -inst.inter.ravel()[free] / inst.slope.ravel()[free]
    order = np.argsort(roots)
    assert free.size == 130
    for k in order[np.linspace(0, free.size - 1, 5).astype(int)].tolist():
        i, t = int(free[k]), float(roots[k])
        j, others = int(binaries[i]), np.delete(np.arange(binaries.size), i)
        full = inst.mip
        mip = replace(full, binaries=tuple(binaries[others].tolist()),
                      slope=full.slope[others], inter=full.inter[others],
                      on_rows=full.on_rows[others], off_rows=full.off_rows[others])
        mip.lp.lb[inst.scal_idx] = mip.lp.ub[inst.scal_idx] = t
        lo, hi = mip.lp.row_lo.copy(), mip.lp.row_hi.copy()
        points = []
        for v, idle in ((0.0, full.on_rows[i]), (1.0, full.off_rows[i])):
            mip.lp.lb[j] = mip.lp.ub[j] = v
            mip.lp.row_lo[:], mip.lp.row_hi[:] = lo, hi
            mip.lp.row_lo[idle], mip.lp.row_hi[idle] = -np.inf, np.inf
            sol = solve_milp(mip, cfg)
            assert sol.status == "optimal", (t, v)
            points.append(sol.x[inst.prod_idx])
        off, on = points
        assert (np.abs(off - on) <= 1e-9 * (1.0 + np.abs(off))).all(), t


def test_binary_prefixing_narrows_bounds():
    # candidate at CF 1 with fl 0.5 and no demand: the premise is 0.5 * scal,
    # 0 at scal = 0 and positive beyond, so the premise is >= 0 over the
    # whole domain and the trigger is pinned on
    grid = two_bus(p_max=1.0)
    inst = build_problem(grid, Scenario(fl=0.5), SolverConfig())
    (j,) = inst.alpha_idx.ravel()
    assert (inst.lp.lb[j], inst.lp.ub[j]) == (1.0, 1.0)


def test_trigger_pinned_at_zero_premise_solves_at_the_root():
    inst = build_problem(two_bus(p_max=1.0), Scenario(fl=0.5), SolverConfig())
    sol = solve_milp(inst.mip, SolverConfig())
    assert (sol.status, sol.nodes) == ("optimal", 1)


@pytest.mark.parametrize("name", ["urban", "rural", "hybrid"])
def test_mv_fixtures_leave_no_trigger_free(name, request):
    # no MV trigger premise changes sign over [0, scal_max]
    grid = request.getfixturevalue(name)
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            inst = build_problem(grid, Scenario(fl=fl, case=case), SolverConfig())
            lb, ub = np.asarray(inst.lp.lb), np.asarray(inst.lp.ub)
            assert not (lb[inst.alpha_idx] < ub[inst.alpha_idx]).any(), (fl, case)


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_the_milp_maximises_scal_over_units_and_triggers_only(name):
    # one scal, each eligible node's p, sp and trigger per hour: no exchange
    # or balance slack variables, and the objective is -scal
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    for fl, case in ((0.7, "a"), (1.0, "b")):
        inst = build_problem(grid, Scenario(fl=fl, case=case), SolverConfig())
        H, E = len(inst.hours), len(inst.elig_nodes)
        L, N = len(inst.model.line_order), len(inst.model.bus_order)
        assert inst.lp.n_vars == 1 + 3 * H * E
        # per hour: an availability row and two trigger rows (pin, spill) per
        # node, and one thermal row per line and one voltage row per bus, each
        # with both limits; no row states the trigger's premise
        assert inst.lp.n_rows == H * (3 * E + L + N)
        sol = solve_milp(inst.mip, SolverConfig())
        assert sol.status == "optimal"
        assert sol.objective == -sol.x[inst.scal_idx]


def test_network_rows_match_the_bus_by_bus_reference():
    rng = np.random.default_rng(5)
    cases = [(synth_grid("urban_mv"), Scenario(fl=0.7, case="b"))]
    for n in range(6):
        grid = random_radial(rng, n_bus=3 + 2 * n, hours=3)
        cases.append((grid, Scenario(fl=0.8, case="ab"[n % 2], hours=(0, 1, 2))))
    for grid, scenario in cases:
        inst = build_problem(grid, scenario, SolverConfig())
        built = [r for k in range(len(inst.hours))
                 for r in (*inst.thermal_rows[k], *inst.v_rows[k])]
        ref = reference_network_rows(inst)
        assert len(built) == len(ref)
        for r, (coeffs, lo, hi) in zip(built, ref):
            idx, coef = row_entries(inst.lp, r)
            assert dict(zip(idx.tolist(), coef.tolist())) == coeffs
            # bytes, so that -0.0 and 0.0 differ
            assert (np.array([inst.lp.row_lo[r], inst.lp.row_hi[r]]).tobytes()
                    == np.array([lo, hi]).tobytes())


def _assert_trigger_block_matches_reference(inst):
    rows, bounds, gated = reference_trigger_rows(inst)
    kinds = ("avail[", "pin[", "spill[")
    built = {name: r for r, name in enumerate(inst.lp.row_names) if name.startswith(kinds)}
    assert built.keys() == rows.keys()
    for name, (idx, coef, lo, hi) in rows.items():
        r = built[name]
        built_idx, built_coef = row_entries(inst.lp, r)
        assert built_idx.tolist() == idx, name
        # bytes, so that -0.0 and 0.0 differ
        assert built_coef.tobytes() == np.array(coef, dtype=float).tobytes(), name
        assert (np.array([inst.lp.row_lo[r], inst.lp.row_hi[r]]).tobytes()
                == np.array([lo, hi], dtype=float).tobytes()), name
    assert inst.binaries == tuple(inst.alpha_idx.ravel().tolist()) == tuple(bounds)
    for j, (lo, hi) in bounds.items():
        assert (inst.lp.lb[j], inst.lp.ub[j]) == (lo, hi), inst.lp.names[j]
    mip, names = inst.mip, inst.lp.row_names
    assert inst.trigger_rows.shape == (*inst.alpha_idx.shape, 2)
    assert {j: (names[on], names[off])
            for j, on, off in zip(mip.binaries, mip.on_rows, mip.off_rows)} == gated


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_trigger_block_matches_the_scalar_reference(name):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            for scal_max in (SolverConfig().scal_max, 1.0):
                inst = build_problem(grid, Scenario(fl=fl, case=case),
                                     SolverConfig(scal_max=scal_max))
                _assert_trigger_block_matches_reference(inst)


@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_given_aggregates_build_the_same_problem(name):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    for fl in (1.0, 0.7):
        for case in ("a", "b"):
            scenario = Scenario(fl=fl, case=case)
            given = build_problem(grid, scenario, agg=node_aggregates(grid, scenario))
            assert dump_lp(given.mip) == dump_lp(build_problem(grid, scenario).mip)


def test_trigger_block_matches_the_scalar_reference_on_random_instances():
    cfg = SolverConfig()
    for grid, scenario in valid_random_instances(11, 40, cfg, max_bus=10, max_hours=3):
        _assert_trigger_block_matches_reference(build_problem(grid, scenario, cfg))


def test_no_eligible_capacity_builds_no_trigger():
    # no eligible capacity at the node: no trigger and no trigger rows
    for kind, case in (("wind", "b"), ("pv_existing_fixed", "a")):
        inst = build_problem(two_bus(demand_mw=1.4, kind=kind), Scenario(case=case))
        assert inst.alpha_idx.shape == (1, 0) and inst.trigger_rows.shape == (1, 0, 2)
        assert not any(n.startswith(("curt_on", "pin", "spill")) for n in inst.lp.names
                       + inst.lp.row_names)


# -- network rows ------------------------------------------------------------


def test_network_rows_are_the_deferred_rows(hybrid):
    # the thermal and voltage rows, which the MILP once deferred and now keeps
    # with the rest, are the rows extract_solution reads through thermal_rows
    # and v_rows
    inst = build_problem(hybrid, Scenario(fl=0.7, case="b"), SolverConfig())
    rows = sorted([*inst.thermal_rows.ravel().tolist(), *inst.v_rows.ravel().tolist()])
    kinds = ("thermal[", "v[")
    assert rows and rows == [i for i, n in enumerate(inst.lp.row_names) if n.startswith(kinds)]


def test_row_of_names_the_upper_network_rows(hybrid):
    # the row of the last line and of the last bus at the last hour
    inst = build_problem(hybrid, Scenario(fl=0.7, case="b"), SolverConfig())
    k = len(inst.hours) - 1
    line, bus = inst.model.line_order[-1], inst.model.bus_order[-1]
    assert inst.lp.row_names[inst.thermal_rows[k, -1]] == f"thermal[{k},{line}]"
    assert inst.lp.row_names[inst.v_rows[k, -1]] == f"v[{k},{bus}]"
