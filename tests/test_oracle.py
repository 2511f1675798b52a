from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feedincap.formulation import Scenario, build_problem, energy_account
from feedincap.fixtures import example_grid_7kwp
from feedincap.grid import GenUnit, Grid, parse_grid
from feedincap.milp import SolverConfig
from feedincap.network import build_linear_model
from feedincap.oracle import (
    OracleError,
    annual_simulate,
    feasible_at,
    flagged_rows,
    headroom,
    max_scal_bisection,
    oracle_plan,
    search_limits,
)

import util
from util import (
    chain3,
    enumerate_alpha,
    random_radial,
    reference_bisection,
    reference_block_search,
    reference_flagged_rows,
    reference_unit_series,
    reference_unit_totals,
    rule_injections,
    two_bus,
    valid_random_instances,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_rule_injection_is_negated_demand_without_generation():
    grid = two_bus(demand_mw=0.8, p_max=0.4)
    state = rule_injections(grid, Scenario(fl=0.7), 0.0)
    i = state.bus_order.index("n1")
    assert state.injection_p[0, i] == pytest.approx(-0.8)
    assert np.all(state.curtailed_mw == 0.0)


def test_rule_injection_reference_point():
    grid = example_grid_7kwp()
    state = rule_injections(grid, Scenario(fl=0.7), 1.0)
    i = state.bus_order.index("n001")
    assert state.injection_p[0, i] == pytest.approx(4.9e-3, abs=1e-12)
    assert state.curtailed_mw[0, i] == pytest.approx(0.7e-3, abs=1e-12)
    assert bool(state.alpha[0, i]) is True


def test_rule_rejects_negative_scal():
    with pytest.raises(OracleError):
        rule_injections(two_bus(), Scenario(), -0.1)


@pytest.mark.parametrize("scal", [float("nan"), float("inf"), float("-inf")])
def test_rule_rejects_a_non_finite_scal(scal):
    with pytest.raises(OracleError, match="scal must be finite and >= 0"):
        rule_injections(example_grid_7kwp(), Scenario(fl=0.7), scal)


@pytest.mark.parametrize("scal", [float("nan"), float("inf"), float("-inf"), -0.1])
@pytest.mark.parametrize("entry", [feasible_at, oracle_plan])
def test_oracle_rejects_a_scal_outside_its_domain(entry, scal):
    with pytest.raises(OracleError, match="scal must be finite and >= 0"):
        entry(example_grid_7kwp(), Scenario(fl=0.7), scal)


def test_oracle_accepts_negative_zero():
    # the MILP answers -0.0 where nothing can be added
    assert feasible_at(example_grid_7kwp(), Scenario(fl=0.7), -0.0).feasible
    assert oracle_plan(example_grid_7kwp(), Scenario(fl=0.7), -0.0).scal == 0.0


def test_injections_nondecreasing_in_scal():
    rng = np.random.default_rng(23)
    for _ in range(8):
        grid = random_radial(rng, n_bus=7, hours=2)
        scenario = Scenario(fl=float(rng.choice([1.0, 0.8, 0.7])),
                            case=str(rng.choice(["a", "b"])), hours=(0, 1))
        prev = None
        for s in np.linspace(0.0, 3.0, 7):
            state = rule_injections(grid, scenario, float(s))
            if prev is not None:
                assert np.all(state.injection_p >= prev - 1e-12)
            prev = state.injection_p


# -- feasible_at -------------------------------------------------------------


def test_fixture_healthy_at_zero(rural):
    report = feasible_at(rural, Scenario(fl=0.7), 0.0)
    assert report.feasible
    assert report.violations == ()
    assert report.n_violations == 0


def test_thermal_violation_magnitude():
    report = feasible_at(two_bus(), Scenario(fl=1.0), 6.0)
    assert not report.feasible
    assert report.n_violations == 1
    v = report.violations[0]
    assert v.kind == "thermal" and v.element == "sub-n1"
    assert v.amount == pytest.approx(1.0, abs=1e-9)
    assert report.worst_thermal_mw == pytest.approx(1.0, abs=1e-9)


def test_preloaded_grid_infeasible_at_zero(hybrid):
    # with demand halved, the standing PV alone pushes voltage past the cap
    scenario = Scenario(fl=1.0, case="a", demand_multiplier=0.5)
    assert not feasible_at(hybrid, scenario, 0.0).feasible
    search = max_scal_bisection(hybrid, scenario)
    assert search.status == "infeasible_at_zero"
    assert search.scal_star is None
    assert search.evaluations == 1 and search.binding is None


def test_violation_listing_capped():
    grid = two_bus(profile=(1.0, 1.0, 1.0))
    report = feasible_at(grid, Scenario(fl=1.0, hours=(0, 1, 2)), 50.0,
                         max_listed=2)
    assert report.n_violations >= 3
    assert len(report.violations) == 2
    none = feasible_at(grid, Scenario(fl=1.0, hours=(0, 1, 2)), 50.0, max_listed=0)
    assert none.violations == () and none.n_violations == report.n_violations
    for k in (-1, -3):
        with pytest.raises(ValueError, match="max_listed"):
            feasible_at(grid, Scenario(fl=1.0, hours=(0, 1, 2)), 50.0, max_listed=k)


def test_violation_listing_matches_hour_by_hour_loop():
    rng = np.random.default_rng(7)
    grid = random_radial(rng, n_bus=8, hours=4, vband=(0.9999, 1.0001))
    scenario = Scenario(fl=1.0, case="b", hours=(0, 1, 2, 3))
    cfg = SolverConfig()
    plan = oracle_plan(grid, scenario, scal=40.0)
    tol = cfg.feasibility_tol
    vmax2 = {b.id: b.vmax**2 for b in grid.buses}
    vmin2 = {b.id: b.vmin**2 for b in grid.buses}
    expected = []
    for k, h in enumerate(plan.hours):
        for l, line in enumerate(grid.lines):
            over = abs(plan.flows_mw[k, l]) - line.s_max
            if over > tol:
                expected.append(("thermal", line.id, h, over))
        for kind, over_of in (("v_high", lambda v, b: v - vmax2[b]),
                              ("v_low", lambda v, b: vmin2[b] - v)):
            for i, bid in enumerate(plan.bus_order):
                over = over_of(plan.voltages_pu2[k, i], bid)
                if over > tol:
                    expected.append((kind, bid, h, over))
    assert {row[0] for row in expected} == {"thermal", "v_high", "v_low"}

    report = feasible_at(grid, scenario, 40.0, cfg, max_listed=len(expected))
    listed = [(v.kind, v.element, v.hour, v.amount) for v in report.violations]
    assert listed == expected and report.n_violations == len(expected)
    capped = feasible_at(grid, scenario, 40.0, cfg, max_listed=3)
    assert capped.violations == report.violations[:3]
    assert capped.n_violations == len(expected)


# -- max_scal_bisection: the exact search ------------------------------------


def test_bisection_saturates_without_limits():
    grid = two_bus(s_max=float("inf"), vmin=0.01, vmax=100.0)
    cfg = SolverConfig(scal_max=1000.0)
    search = max_scal_bisection(grid, Scenario(fl=0.7), cfg)
    assert search.status == "ok"
    assert search.hit_domain_max
    assert search.scal_star == 1000.0


def test_bisection_closed_form():
    search = max_scal_bisection(two_bus(), Scenario(fl=0.7))
    assert search.status == "ok"
    assert search.scal_star == pytest.approx(5.0 / 0.7, abs=1e-9)
    assert not search.hit_domain_max


def test_interval_feasibility_sampled():
    rng = np.random.default_rng(31)
    cfg = SolverConfig()
    done = 0
    while done < 6:
        grid = random_radial(rng, n_bus=6, hours=1)
        scenario = Scenario(fl=0.8, case="b")
        search = max_scal_bisection(grid, scenario, cfg)
        if search.status != "ok" or search.hit_domain_max:
            continue
        done += 1
        star = search.scal_star
        for frac in (0.25, 0.5, 0.9):
            assert feasible_at(grid, scenario, frac * star, cfg).feasible
        assert not feasible_at(grid, scenario, star + 1e-3, cfg).feasible


def _binding_margin(grid, scenario, search) -> float:
    """Distance left to the bound of the row the search reports as binding."""
    plan = oracle_plan(grid, scenario, scal=search.scal_star)
    thermal, v_high, _ = headroom(build_linear_model(grid),
                                  plan.flows_mw, plan.voltages_pu2)
    kind, element, hour = search.binding
    k = plan.hours.index(hour)
    if kind == "thermal":
        return float(thermal[k, plan.line_order.index(element)])
    assert kind == "v_high"
    return float(v_high[k, plan.bus_order.index(element)])


def _differential_cases():
    cfg = SolverConfig()
    yield from valid_random_instances(41, 30, cfg, max_bus=10, max_hours=3)
    for path in sorted(FIXTURES.glob("*.json")):
        grid = parse_grid(path.read_text(encoding="utf-8"))
        for fl in (1.0, 0.7):
            for case in ("a", "b"):
                yield grid, Scenario(fl=fl, case=case)


def test_search_matches_reference_bisection():
    cfg = SolverConfig()
    count = 0
    for grid, scenario in _differential_cases():
        count += 1
        search = max_scal_bisection(grid, scenario, cfg)
        ref = reference_bisection(grid, scenario, cfg, tol=1e-9)
        if ref is None:
            assert search.status == "infeasible_at_zero"
            continue
        star = search.scal_star
        assert search.status == "ok"
        assert feasible_at(grid, scenario, star, cfg).feasible
        assert abs(star - ref) <= 1e-5 * (1.0 + star), (star, ref)
        assert search.evaluations <= 10
        if not search.hit_domain_max:
            assert _binding_margin(grid, scenario, search) <= 1e-9
    assert count == 30 + 5 * 4


def test_search_reports_binding_line():
    search = max_scal_bisection(two_bus(), Scenario(fl=0.7))
    assert search.binding == ("thermal", "sub-n1", 0)
    assert "sub-n1" in str(search) and "pass" in str(search)


# -- search_limits: several feed-in limits over one aggregate ---------------

# Stacked limits go through gemm where a lone snapshot search's 1-row products
# go through gemv, so scal* may differ in its last bits: at most 3.7e-15 *
# (1 + scal*) over every default-sweep cell of the fixtures, the sweep
# benchmark's documents and 150 random grids of up to 40 buses and 30 hours.
GROUPED_SCAL_TOL = 2e-14
SWEEP_FLS = (1.0, 0.9, 0.8, 0.7)


def _grouped_cases():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.stem, parse_grid(path.read_text(encoding="utf-8"))
    rng = np.random.default_rng(37)
    for i in range(25):
        yield f"random {i}", random_radial(rng, n_bus=int(rng.integers(3, 16)),
                                           hours=int(rng.integers(1, 6)))


def test_grouped_search_matches_one_limit_searches():
    cfg = SolverConfig()
    cells = infeasible = 0
    for name, grid in _grouped_cases():
        model = build_linear_model(grid)
        for case in ("a", "b"):
            for mult in (1.0, 1.1, 1.2):
                base = Scenario(case=case, demand_multiplier=mult)
                grouped = search_limits(grid, base, SWEEP_FLS, cfg, model=model)
                assert len(grouped) == len(SWEEP_FLS)
                for fl, got in zip(SWEEP_FLS, grouped):
                    one = max_scal_bisection(grid, replace(base, fl=fl), cfg, model=model)
                    key = (name, fl, case, mult)
                    assert (got.status, got.evaluations, got.hit_domain_max, got.binding) \
                        == (one.status, one.evaluations, one.hit_domain_max, one.binding), key
                    # a lone search's first pass checks the bounds as feasible_at does
                    zero = feasible_at(grid, replace(base, fl=fl), 0.0, cfg, model=model)
                    assert (one.status == "infeasible_at_zero") == (not zero.feasible), key
                    cells += 1
                    if one.status != "ok":
                        infeasible += 1
                        continue
                    assert abs(got.scal_star - one.scal_star) \
                        <= GROUPED_SCAL_TOL * (1.0 + one.scal_star), key
    assert cells == 30 * 24 and 0 < infeasible < cells


def test_one_limit_search_is_the_block_reference(lv_year):
    # bit for bit: a lone annual search runs the reference's 512-hour blocks
    cfg, fls = SolverConfig(), (1.0, 0.7)
    paired = search_limits(lv_year, Scenario(mode="annual"), fls, cfg)   # 256-hour blocks
    for fl, pair in zip(fls, paired):
        scenario = Scenario(fl=fl, mode="annual")
        one = max_scal_bisection(lv_year, scenario, cfg)
        got = (one.status, one.scal_star, one.evaluations, one.hit_domain_max, one.binding)
        assert got == reference_block_search(lv_year, scenario, cfg), fl
        assert (pair.status, pair.evaluations, pair.binding) \
            == (one.status, one.evaluations, one.binding), fl
        zero = feasible_at(lv_year, scenario, 0.0, cfg)
        assert (one.status == "infeasible_at_zero") == (not zero.feasible), fl
        assert abs(pair.scal_star - one.scal_star) <= GROUPED_SCAL_TOL * (1.0 + one.scal_star)


# -- enumeration -------------------------------------------------------------


def test_enumerate_single_lp_when_nothing_free():
    grid = example_grid_7kwp()
    res = enumerate_alpha(grid, Scenario(fl=0.7), fix_scal=1.0)
    assert res.status == "optimal"
    assert res.n_assignments == 1
    # the objective is -scal, pinned at 1
    assert res.objective == -1.0


def test_each_enumerated_assignment_agrees_with_its_premises():
    # criterion 3's instances: every feasible assignment's LP ends at a scal
    # where each free bit has its premise's sign, 1 at >= 0 and 0 at <= 0
    cfg = SolverConfig()
    solved = 0
    for grid, scenario in valid_random_instances(23, 25, cfg, max_bus=5, max_hours=3):
        inst = build_problem(grid, scenario, cfg)
        free = [i for i, j in enumerate(inst.binaries) if inst.lp.lb[j] < inst.lp.ub[j]]
        enum = enumerate_alpha(grid, scenario, cfg)
        assert len(enum.solutions) == enum.n_feasible
        for x in enum.solutions:
            solved += bool(free)
            premise = inst.slope.ravel() * x[inst.scal_idx] + inst.inter.ravel()
            bits = x[list(inst.binaries)]
            assert (premise[free] >= -1e-9)[bits[free] == 1.0].all()
            assert (premise[free] <= 1e-9)[bits[free] == 0.0].all()
    assert solved > 0


def test_enumerate_guard():
    rng = np.random.default_rng(2)
    grid = random_radial(rng, n_bus=9, hours=3)
    with pytest.raises(OracleError, match="guard"):
        enumerate_alpha(grid, Scenario(fl=0.7, case="b", hours=(0, 1, 2)),
                        max_free=0)


def test_enumerate_restores_bounds():
    grid = two_bus()
    from feedincap.formulation import build_problem
    cfg = SolverConfig()
    inst = build_problem(grid, Scenario(fl=0.7), cfg)
    before = (list(inst.lp.lb), list(inst.lp.ub))
    enumerate_alpha(grid, Scenario(fl=0.7), cfg)
    assert (list(inst.lp.lb), list(inst.lp.ub)) == before


def test_enumerate_restores_bounds_when_a_solve_fails(monkeypatch):
    rng = np.random.default_rng(2)
    grid = random_radial(rng, n_bus=9, hours=3)
    scenario = Scenario(fl=0.7, case="b", hours=(0, 1, 2))
    inst = build_problem(grid, scenario)
    assert any(inst.lp.lb[j] < inst.lp.ub[j] for j in inst.binaries)
    before = (list(inst.lp.lb), list(inst.lp.ub))

    def crash(lp, *bounds):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(util, "build_problem", lambda *a, **kw: inst)
    monkeypatch.setattr(util, "reference_lp", crash)
    with pytest.raises(RuntimeError, match="solver crashed"):
        enumerate_alpha(grid, scenario, max_free=64)
    assert (list(inst.lp.lb), list(inst.lp.ub)) == before


# -- oracle_plan -------------------------------------------------------------


def test_oracle_plan_reference_point():
    grid = example_grid_7kwp()
    plan = oracle_plan(grid, Scenario(fl=0.7), scal=1.0)
    gid = next(g.id for g in grid.gens if g.kind == "pv_candidate")
    assert plan.curtailment_mw[plan.unit_ids.index(gid)][0] == \
        pytest.approx(0.7e-3, abs=1e-12)
    assert plan.exports_mw[0] == pytest.approx(4.9e-3, abs=1e-12)


def test_oracle_plan_prorata_split():
    grid = two_bus(p_max=2.0)
    grid = Grid(grid.base_mva, grid.base_kv, grid.buses, grid.lines,
                grid.gens + (GenUnit("g2", "n1", "pv_existing_scalable",
                                     6.0, (1.0,)),))
    plan = oracle_plan(grid, Scenario(fl=0.5, case="b"), scal=1.0)
    # node: avail 8, cap 8, fl 0.5 -> curtail 4 split 1:3 across the units
    g1, g2 = plan.unit_ids.index("g1"), plan.unit_ids.index("g2")
    assert plan.curtailment_mw[g1][0] == pytest.approx(1.0)
    assert plan.curtailment_mw[g2][0] == pytest.approx(3.0)
    assert plan.production_mw[g1][0] + plan.production_mw[g2][0] == \
        pytest.approx(4.0)


def _plan_matching_the_unit_loop(grid, scenario, scal):
    """oracle_plan, once every unit row and account total is checked bit for
    bit against the per-generator loop."""
    plan = oracle_plan(grid, scenario, scal)
    units = reference_unit_series(grid, scenario, scal)
    assert plan.unit_ids == tuple(units)
    matrices = (plan.available_mw, plan.curtailment_mw, plan.production_mw)
    for m in matrices:
        assert m.shape == (len(units), len(plan.hours))
        assert m.flags.c_contiguous
    for u, series in enumerate(units.values()):
        for m, ref in zip(matrices, series):
            assert m[u].tobytes() == ref.tobytes(), plan.unit_ids[u]
    acc = energy_account(plan)
    totals = (acc.available_mwh, acc.curtailed_mwh, acc.generated_mwh)
    assert [t.hex() for t in totals] == \
        [t.hex() for t in reference_unit_totals(units, grid.hour_duration_h)]
    return plan


@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("fl", [1.0, 0.7])
@pytest.mark.parametrize("name", ["example", "urban_mv", "rural_mv", "hybrid_mv", "lv"])
def test_plan_rows_and_totals_match_the_unit_loop(name, fl, case):
    grid = parse_grid((FIXTURES / f"{name}.json").read_text())
    scenario = Scenario(fl=fl, case=case)
    search = max_scal_bisection(grid, scenario)
    _plan_matching_the_unit_loop(
        grid, scenario, search.scal_star if search.status == "ok" else 1.0)


def test_annual_plan_rows_and_totals_match_the_unit_loop(lv_year):
    plan = _plan_matching_the_unit_loop(lv_year, Scenario(fl=0.7, mode="annual"), 1.0676)
    assert plan.curtailment_mw.any()
    # an F-ordered matrix sums its rows another way; the account must not see it
    f_ordered = replace(plan, **{q: np.asfortranarray(getattr(plan, q)) for q in
                                 ("available_mw", "curtailment_mw", "production_mw")})
    assert energy_account(f_ordered) == energy_account(plan)


@pytest.mark.parametrize("case", ["a", "b"])
def test_plan_rows_without_node_availability_or_eligibility(case):
    grid = two_bus(p_max=2.0, profile=(0.0, 1.0))
    grid = replace(grid, gens=grid.gens + (
        GenUnit("f", "n1", "pv_existing_fixed", 1.0, (0.0, 1.0)),))
    plan = _plan_matching_the_unit_loop(grid, Scenario(fl=0.5, case=case, hours=(0, 1)), 1.0)
    g1, f = plan.unit_ids.index("g1"), plan.unit_ids.index("f")
    assert not plan.curtailment_mw[:, 0].any()         # nothing available: share 0
    assert plan.curtailment_mw[g1, 1] > 0.0
    if case == "a":                 # f is not eligible while its node curtails
        assert plan.curtailment_mw[f].tobytes() == np.zeros(2).tobytes()
        assert plan.production_mw[f].tobytes() == plan.available_mw[f].tobytes()
    else:
        assert plan.curtailment_mw[f, 1] > 0.0


def test_plan_of_a_grid_without_generators():
    plan = _plan_matching_the_unit_loop(chain3(), Scenario(), 1.0)
    assert plan.unit_ids == ()
    assert plan.available_mw.shape == (0, 1)
    acc = energy_account(plan)
    assert (acc.available_mwh, acc.curtailed_mwh, acc.generated_mwh) == (0.0, 0.0, 0.0)
    assert isinstance(acc.available_mwh, float)


@pytest.mark.parametrize("limit", [None, 0, 3])
def test_flagged_rows_labels_match_the_list_lookup(limit):
    rng = np.random.default_rng(7)
    hours, lines, buses = (10, 11, 12, 13), ("l0", "l1", "l2"), ("b0", "b1", "b2", "b3")
    values = tuple(rng.normal(size=(len(hours), n)) for n in (3, 4, 4))
    masks = tuple(v < -0.5 for v in values)
    for m in masks:
        m[0] = False
    # the first hour flags one row of each block, so three rows reach all of them
    masks[0][0, 2] = masks[1][0, 1] = masks[2][0, 3] = True
    got = flagged_rows(values, masks, hours, lines, buses, limit)
    assert got == reference_flagged_rows(values, masks, hours, lines, buses, limit)
    assert {kind for kind, *_ in got[1]} == (
        set() if limit == 0 else {"thermal", "v_high", "v_low"})
    if limit == 3:
        assert got[1] == [("thermal", "l2", 10, float(values[0][0, 2])),
                          ("v_high", "b1", 10, float(values[1][0, 1])),
                          ("v_low", "b3", 10, float(values[2][0, 3]))]


# -- annual ------------------------------------------------------------------


def test_annual_zero_scal_no_existing_pv():
    grid = two_bus(profile=(0.1, 0.6, 1.0, 0.2))
    sim = annual_simulate(grid, Scenario(fl=0.7), 0.0)
    assert sim.account.curtailed_mwh == 0.0         # a sum of nonnegative hours
    assert sim.account.generated_mwh == 0.0
    assert sim.violation_hours == 0


def test_annual_single_peak_hour_curtailment():
    base = example_grid_7kwp()
    cand = next(g for g in base.gens if g.kind == "pv_candidate")
    buses = tuple(
        replace(b, demand_p=(0.0, 1.4e-3, 0.0), demand_q=(0.0, 0.0, 0.0))
        for b in base.buses)
    gens = (replace(cand, profile=(0.0, 1.0, 0.0)),)
    grid = Grid(base.base_mva, base.base_kv, buses, base.lines, gens)
    sim = annual_simulate(grid, Scenario(fl=0.7), 1.0)
    assert sim.account.curtailed_mwh == pytest.approx(0.7e-3, abs=1e-12)
    assert sim.account.generated_mwh == pytest.approx(6.3e-3, abs=1e-12)


def test_annual_energy_identity(lv):
    acc = annual_simulate(lv, Scenario(fl=0.7, case="b"), 0.5).account
    gap = abs(acc.generated_mwh + acc.curtailed_mwh - acc.available_mwh)
    assert gap <= 1e-9 * max(1.0, acc.available_mwh)


@pytest.mark.parametrize("scal", [float("nan"), float("inf"), -0.1])
def test_annual_rejects_a_bad_scal(scal):
    with pytest.raises(OracleError, match="scal must be finite"):
        annual_simulate(two_bus(), Scenario(), scal)


def test_annual_counts_violation_hours():
    grid = two_bus(profile=(1.0, 0.4))
    sim = annual_simulate(grid, Scenario(fl=1.0, hours=(0,)), 8.0)
    # flow is 8 MW in the full-sun hour, 3.2 MW in the other; limit is 5
    assert sim.violation_hours == 1
