"""End-to-end gate for every promise this package makes.

One test per criterion. Each prints a single verdict line; run with

    pytest tests/test_acceptance.py -v -s

to see them live. A red run still names the broken promise and the margin
by which it broke.
"""

import time

import numpy as np

from feedincap.analysis import SweepSpec, check_monotonicity, energy_account, run_sweep
from feedincap.cli import main as cli_main
from feedincap.fixtures import example_grid_7kwp
from feedincap.formulation import (
    Scenario, build_problem, extract_solution, node_aggregates,
)
from feedincap.grid import serialize_grid
from feedincap.milp import SolverConfig, solve_milp
from feedincap.network import build_linear_model, evaluate_linear
from feedincap.oracle import annual_simulate, max_scal_bisection, oracle_plan

from util import compare_models, enumerate_alpha, rule_injections, valid_random_instances


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _milp_scal(grid, scenario, cfg):
    """The MILP's status and, when optimal, its certified scal."""
    inst = build_problem(grid, scenario, cfg)
    sol = solve_milp(inst.mip, cfg)
    return sol.status, extract_solution(inst, sol) if sol.status == "optimal" else None


def test_criterion_1_reference_example():
    t0 = time.perf_counter()
    grid = example_grid_7kwp()
    cfg = SolverConfig()

    state = rule_injections(grid, Scenario(fl=0.7), 1.0)
    rule_curt = float(state.curtailed_mw.sum())
    rule_feed = float(state.injection_p.max())

    # a scal_max of 1 binds (scal* is far above it), so the MILP plans at scal = 1
    pinned = SolverConfig(scal_max=1.0)
    inst = build_problem(grid, Scenario(fl=0.7), pinned)
    sol = solve_milp(inst.mip, pinned)
    assert extract_solution(inst, sol) == 1.0
    (p, sp), = sol.x[inst.prod_idx[0]]              # pv_new's node, the one eligible
    milp_curt = float(sp)
    milp_feed = float(p - inst.agg.demand_p.sum())   # net export of the one load bus

    bare = rule_injections(grid, Scenario(fl=0.7, demand_multiplier=0.0), 1.0)
    bare_curt = float(bare.curtailed_mw.sum())

    dt = time.perf_counter() - t0
    errs = [abs(rule_curt - 0.7e-3), abs(milp_curt - 0.7e-3),
            abs(rule_feed - 4.9e-3), abs(milp_feed - 4.9e-3),
            abs(bare_curt - 2.1e-3)]
    ok = max(errs) <= 1e-12 and dt < 1.0
    _verdict(1, ok, f"curtailed 0.7 kW, feed-in 4.9 kW, bare 2.1 kW "
                    f"(worst error {max(errs):.1e} MW), {dt:.2f} s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = SolverConfig()
    bad = []
    worst_ratio = 0.0
    count = 0
    for grid, scenario in valid_random_instances(11, 50, cfg,
                                                 max_bus=10, max_hours=3):
        count += 1
        search = max_scal_bisection(grid, scenario, cfg)
        status, scal = _milp_scal(grid, scenario, cfg)
        if status != "optimal":
            bad.append((count, status))
            continue
        limit = 1e-9 * (1.0 + search.scal_star)
        dev = abs(scal - search.scal_star)
        worst_ratio = max(worst_ratio, dev / limit)
        if dev > limit:
            bad.append((count, status, dev, limit))
    dt = time.perf_counter() - t0
    ok = count >= 50 and not bad and dt < 120.0
    _verdict(2, ok, f"{count} instances, worst |dscal|/limit {worst_ratio:.2e}, "
                    f"{dt:.1f} s"
                    + (f", failures {bad[:3]}" if bad else ""))


def test_criterion_3_exhaustive_binary_equivalence():
    cfg = SolverConfig()
    bad = []
    worst = 0.0
    count = 0
    for grid, scenario in valid_random_instances(23, 25, cfg,
                                                 max_bus=5, max_hours=3):
        count += 1
        inst = build_problem(grid, scenario, cfg)
        assert inst.alpha_idx.size <= 12
        sol = solve_milp(inst.mip, cfg)
        enum = enumerate_alpha(grid, scenario, cfg)
        if sol.status != "optimal" or enum.status != "optimal":
            bad.append((count, sol.status, enum.status))
            continue
        gap = abs(sol.objective - enum.objective)
        worst = max(worst, gap)
        if gap > 1e-9 * (1.0 + abs(enum.objective)):
            bad.append((count, gap))
    ok = count >= 25 and not bad
    _verdict(3, ok, f"{count} instances, worst objective gap {worst:.2e}"
                    + (f", failures {bad[:3]}" if bad else ""))


def test_criterion_4_monotonicity_all_fixtures(rural, urban, hybrid, lv):
    cfg = SolverConfig()
    problems = []
    cells = 0
    for name, grid in (("rural_mv", rural), ("urban_mv", urban),
                       ("hybrid_mv", hybrid), ("lv", lv)):
        result = run_sweep(grid, SweepSpec(), cfg)
        cells += len(result.cells)
        problems += [f"{name}: cell fl={c.fl} failed: {c.error}"
                     for c in result.failed_cells]
        problems += [f"{name}: {msg}" for msg in check_monotonicity(result)]
    _verdict(4, not problems, f"{cells} sweep cells over 4 grids, "
                              f"{len(problems)} violations"
                              + (f": {problems[:3]}" if problems else ""))


def test_criterion_5_preloaded_grid_case_split(hybrid):
    cfg = SolverConfig()
    a = max_scal_bisection(hybrid, Scenario(fl=0.7, case="a"), cfg)
    b = max_scal_bisection(hybrid, Scenario(fl=0.7, case="b"), cfg)
    ok = (a.status == "ok" and b.status == "ok"
          and a.scal_star <= 2e-4 and b.scal_star > 1e-2)
    _verdict(5, ok, f"case a scal* = {a.scal_star:.2e}, "
                    f"case b scal* = {b.scal_star:.4f}")


def test_criterion_6_annual_low_cap_adds_more(lv_year):
    t0 = time.perf_counter()
    cfg = SolverConfig()
    cap = sum(g.p_max for g in lv_year.gens if g.kind == "pv_candidate")
    s07 = max_scal_bisection(lv_year, Scenario(fl=0.7, mode="annual"), cfg)
    s10 = max_scal_bisection(lv_year, Scenario(fl=1.0, mode="annual"), cfg)
    added07 = s07.scal_star * cap
    added10 = s10.scal_star * cap
    sim = annual_simulate(lv_year, Scenario(fl=0.7, mode="annual"),
                          s07.scal_star, cfg)
    dt = time.perf_counter() - t0
    ok = (s07.status == "ok" and s10.status == "ok"
          and added07 > added10 and sim.account.curtailed_share <= 0.05
          and sim.violation_hours == 0 and dt < 60.0)
    _verdict(6, ok, f"added {added07:.4f} MW at cap 0.7 vs {added10:.4f} MW "
                    f"at cap 1.0, curtailed share {sim.account.curtailed_share:.4f}, "
                    f"{dt:.1f} s for 2x8760 h")


def test_criterion_7_nonlinear_validation(rural, urban, hybrid, lv):
    cfg = SolverConfig()
    worst_dv = 0.0
    worst_resid = 0.0
    grids = [("rural_mv", rural), ("urban_mv", urban), ("hybrid_mv", hybrid),
             ("lv", lv), ("example", example_grid_7kwp())]
    for name, grid in grids:
        model = build_linear_model(grid)
        scenario = Scenario(fl=0.7, case="a")
        search = max_scal_bisection(grid, scenario, cfg, model=model)
        state = rule_injections(grid, scenario, search.scal_star)
        cols = [state.bus_order.index(b) for b in model.bus_order]
        p = state.injection_p[:, cols]
        q = state.injection_q[:, cols]
        for h in range(p.shape[0]):
            report = compare_models(grid, p[h], q[h], model=model)
            worst_dv = max(worst_dv, report.max_dv_pu)

        flows, _ = evaluate_linear(model, p, q)
        pos = {b: i for i, b in enumerate(model.bus_order)}
        for bus in model.bus_order:
            incident = [i for i, ln in enumerate(grid.lines)
                        if bus in (ln.from_bus, ln.to_bus)]
            up = [i for i in incident if model.flow_map[i, pos[bus]] == 1.0]
            down = [i for i in incident if i not in up]
            resid = np.abs(flows[..., up[0]]
                           - sum(flows[..., i] for i in down)
                           - p[..., pos[bus]]).max() / grid.base_mva
            worst_resid = max(worst_resid, float(resid))
    ok = worst_dv <= 0.015 and worst_resid <= 1e-9
    _verdict(7, ok, f"{len(grids)} grids at their optimum: max |dV| "
                    f"{worst_dv:.2e} pu, max conservation residual "
                    f"{worst_resid:.1e} pu")


def test_criterion_8_invariants():
    cfg = SolverConfig()
    worst_split = 0.0       # produced + curtailed vs available
    worst_off = 0.0         # curtailment with the trigger off
    worst_pin = 0.0         # production pinned to the cap with the trigger on
    instances = [(example_grid_7kwp(), Scenario(fl=0.7))]
    instances += list(valid_random_instances(31, 8, cfg, max_bus=6, max_hours=2))
    for grid, scenario in instances:
        inst = build_problem(grid, scenario, cfg)
        sol = solve_milp(inst.mip, cfg)
        scal = extract_solution(inst, sol)
        agg = node_aggregates(grid, scenario, inst.hours)
        prods = sol.x[inst.prod_idx]            # (H, E, 2) p, sp

        # each node's availability added up from its units in grid.gens, not
        # read from agg, so the availability rows are checked on their own
        split = prods.sum(axis=2)
        for g in grid.gens:
            if g.kind in scenario.eligible_kinds() and g.p_max > 0.0:
                base = g.p_max * scal if g.kind == "pv_candidate" else g.p_max
                split[:, inst.elig_nodes.index(g.bus)] -= base * g.profile[list(inst.hours)]
        worst_split = max(worst_split, float(np.max(np.abs(split), initial=0.0)))

        for (h, e), a in np.ndenumerate(sol.x[inst.alpha_idx]):
            i = agg.bus_order.index(inst.elig_nodes[e])
            p, sp = prods[h, e]
            if a < 0.5:
                worst_off = max(worst_off, sp)
            else:
                cap = agg.cap_const[i] + agg.cap_coef[i] * scal
                pin = abs(p - scenario.fl * cap - agg.residual[h, i])
                worst_pin = max(worst_pin, pin)

        # the plan reported at the MILP's factor; raises EnergyBalanceError
        # beyond 1e-9 relative
        energy_account(oracle_plan(grid, scenario, scal))
    ok = worst_split <= 1e-7 and worst_off <= 1e-7 and worst_pin <= 1e-6
    _verdict(8, ok, f"{len(instances)} instances: split residual "
                    f"{worst_split:.1e}, off-trigger curtailment "
                    f"{worst_off:.1e}, on-trigger pin {worst_pin:.1e} MW; "
                    f"energy identity held")


def test_criterion_9_repeatable_artifacts(tmp_path, rural):
    grid_file = tmp_path / "rural.json"
    grid_file.write_text(serialize_grid(rural))
    args = ["sweep", str(grid_file), "--fl-values", "1.0,0.8",
            "--cases", "a,b", "--mults", "1.0,1.2"]
    for sub in ("one", "two"):
        rc = cli_main(args + ["--outdir", str(tmp_path / sub)])
        assert rc == 0
    same = all(
        (tmp_path / "one" / name).read_bytes()
        == (tmp_path / "two" / name).read_bytes()
        for name in ("sweep.csv", "sweep.json"))
    _verdict(9, same, "two sweep runs, byte-identical CSV and JSON")
