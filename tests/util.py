"""Builders and reference implementations shared across the test modules."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from feedincap.grid import Bus, GenUnit, Grid, Line
from feedincap.formulation import Scenario, build_problem, node_aggregates
from feedincap.milp import (INF, LinearProgram, MILProblem, SolverConfig, indicator_bounds,
                           solve_lp)
from feedincap.network import SLACK_VOLTAGE
from feedincap.oracle import OracleError, RuleState, _rule_state, feasible_at


def two_bus(demand_mw=0.0, kind="pv_candidate", p_max=1.0, s_max=5.0,
            r=1e-4, x=1e-4, profile=(1.0,), vmin=0.5, vmax=1.5) -> Grid:
    """Slack plus one node with a single unit; loose voltage band by default."""
    hours = len(profile)
    return Grid(
        base_mva=1.0, base_kv=20.0,
        buses=(Bus("sub", True, (0.0,) * hours, (0.0,) * hours, vmin=vmin, vmax=vmax),
               Bus("n1", False, (demand_mw,) * hours, (0.0,) * hours,
                   vmin=vmin, vmax=vmax)),
        lines=(Line("sub", "n1", r, x, s_max, 1.0),),
        gens=(GenUnit("g1", "n1", kind, p_max, profile),),
    )


def chain3() -> Grid:
    """slack - A - B, unit demand at B."""
    return Grid(
        base_mva=1.0, base_kv=20.0,
        buses=(Bus("sub", True, (0.0,), (0.0,)),
               Bus("A", False, (0.0,), (0.0,)),
               Bus("B", False, (0.1,), (0.0,))),
        lines=(Line("sub", "A", 0.01, 0.01, 5.0, 1.0),
               Line("A", "B", 0.01, 0.01, 5.0, 1.0)),
        gens=(),
    )


def random_radial(rng: np.random.Generator, n_bus: int = 6, hours: int = 2,
                  vband=(0.9, 1.1)) -> Grid:
    """Random radial instance with at least one candidate that can produce."""
    ids = ["sub"] + [f"b{i}" for i in range(1, n_bus)]
    buses = [Bus("sub", True, (0.0,) * hours, (0.0,) * hours,
                 vmin=vband[0], vmax=vband[1])]
    lines = []
    for i in range(1, n_bus):
        parent = ids[rng.integers(0, i)]
        dp = tuple(float(v) for v in rng.uniform(0.0, 0.4, hours))
        dq = tuple(float(v) for v in rng.uniform(0.0, 0.1, hours))
        buses.append(Bus(ids[i], False, dp, dq, vmin=vband[0], vmax=vband[1]))
        lines.append(Line(parent, ids[i], float(rng.uniform(1e-4, 2e-3)),
                          float(rng.uniform(1e-4, 2e-3)),
                          float(rng.uniform(2.0, 6.0)), 1.0))
    gens = []
    for i in range(1, n_bus):
        roll = rng.random()
        prof = tuple(float(v) for v in np.clip(rng.uniform(0.1, 1.0, hours), 0, 1))
        if roll < 0.40:
            gens.append(GenUnit(f"c{i}", ids[i], "pv_candidate",
                                float(rng.uniform(0.05, 0.5)), prof))
        elif roll < 0.60:
            gens.append(GenUnit(f"e{i}", ids[i], "pv_existing_scalable",
                                float(rng.uniform(0.05, 0.4)), prof))
        elif roll < 0.70:
            gens.append(GenUnit(f"f{i}", ids[i], "pv_existing_fixed",
                                float(rng.uniform(0.05, 0.3)), prof))
        elif roll < 0.80:
            gens.append(GenUnit(f"w{i}", ids[i], "wind",
                                float(rng.uniform(0.05, 0.3)), prof))
    if not any(g.kind == "pv_candidate" for g in gens):
        prof = tuple(float(v) for v in np.clip(rng.uniform(0.3, 1.0, hours), 0, 1))
        gens.append(GenUnit("c0", ids[1], "pv_candidate", 0.2, prof))
    return Grid(1.0, 20.0, tuple(buses), tuple(lines), tuple(gens))


def valid_random_instances(seed: int, count: int, cfg: SolverConfig, *,
                           max_bus: int = 10, max_hours: int = 3,
                           fl_choices=(1.0, 0.9, 0.8, 0.7),
                           cases=("a", "b")):
    """Yield (grid, scenario) pairs that are feasible with nothing added."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        grid = random_radial(rng, n_bus=int(rng.integers(3, max_bus + 1)),
                             hours=int(rng.integers(1, max_hours + 1)))
        scenario = Scenario(fl=float(rng.choice(fl_choices)),
                            case=str(rng.choice(cases)))
        if feasible_at(grid, scenario, 0.0, cfg).feasible:
            made += 1
            yield grid, scenario


def reference_worst_case_hour(grid: Grid, scenario: Scenario) -> int:
    """Hour-by-hour scan in Python floats: the reference for worst_case_hour."""
    best_h, best_v = 0, -float("inf")
    for h in range(grid.hour_count):
        avail = sum(g.p_max * float(g.profile[h]) for g in grid.gens)
        dem = scenario.demand_multiplier * sum(float(b.demand_p[h]) for b in grid.buses)
        if avail - dem > best_v + 1e-15:
            best_v = avail - dem
            best_h = h
    return best_h


def reference_serialize_grid(grid: Grid) -> str:
    """The whole document through json.dumps(indent=1), the pure-Python
    encoder: the reference for serialize_grid."""
    doc = {
        "base_mva": grid.base_mva,
        "base_kv": grid.base_kv,
        "hour_duration_h": grid.hour_duration_h,
        "buses": [
            {
                "id": b.id,
                "is_slack": b.is_slack,
                "vmin": b.vmin,
                "vmax": b.vmax,
                "demand_p": b.demand_p.tolist(),
                "demand_q": b.demand_q.tolist(),
            }
            for b in grid.buses
        ],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "r": ln.r,
                "x": ln.x,
                "s_max": ln.s_max,
                "length_km": ln.length_km,
            }
            for ln in grid.lines
        ],
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "kind": g.kind,
                "p_max": g.p_max,
                "profile": g.profile.tolist(),
            }
            for g in grid.gens
        ],
    }
    return json.dumps(doc, indent=1)


def reference_bisection(grid: Grid, scenario: Scenario, cfg: SolverConfig,
                        tol: float = 1e-9) -> float | None:
    """Plain bisection on feasible_at: the reference for the exact search."""
    def ok(s: float) -> bool:
        return feasible_at(grid, scenario, s, cfg).feasible

    if not ok(0.0):
        return None
    if ok(cfg.scal_max):
        return cfg.scal_max
    lo, hi = 0.0, cfg.scal_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def reference_unit_series(grid: Grid, scenario: Scenario,
                          scal: float) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The plan's per-unit series one generator at a time: the reference for
    oracle_plan's (G, H) matrices. Returns {gen id: (available, curtailed,
    produced)}, in grid order."""
    agg = node_aggregates(grid, scenario)
    state = _rule_state(agg, scenario.fl, scal)
    idx = np.asarray(agg.hours, dtype=int)
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    elig_kinds = scenario.eligible_kinds()
    units = {}
    for g in grid.gens:
        cf = g.profile[idx]
        if g.kind in elig_kinds:
            i = pos[g.bus]
            base = g.p_max * scal if g.kind == "pv_candidate" else g.p_max
            a_g = base * cf
            node_av = state.available_mw[:, i]
            share = np.divide(a_g, node_av, out=np.zeros(len(idx)), where=node_av > 0)
            c_g = state.curtailed_mw[:, i] * share
            units[g.id] = (a_g, c_g, a_g - c_g)
        else:
            units[g.id] = (g.p_max * cf, np.zeros(len(idx)), g.p_max * cf)
    return units


def reference_unit_totals(units, hour_duration_h: float) -> tuple[float, float, float]:
    """(available, curtailed, generated) MWh, each unit's series summed on its
    own and the unit totals added in order: the reference for energy_account."""
    return tuple(sum(float(series[q].sum()) for series in units.values()) * hour_duration_h
                 for q in range(3))


def reference_flagged_rows(values, masks, hours, line_order, bus_order, limit=None):
    """flagged_rows with every row's label looked up in a list of all L + 2N
    labels: the reference for its label arithmetic."""
    names = ([("thermal", l, 0, j) for j, l in enumerate(line_order)]
             + [(kind, b, blk, j) for blk, kind in ((1, "v_high"), (2, "v_low"))
                for j, b in enumerate(bus_order)])
    ks, cs = np.nonzero(np.concatenate(masks, axis=1))
    rows = []
    for k, c in zip(ks[:limit].tolist(), cs[:limit].tolist()):
        kind, element, blk, j = names[c]
        rows.append((kind, element, hours[k], float(values[blk][k, j])))
    return int(ks.size), rows


def reference_ratio_test(step, bvals, lb, ub, basis, piv_tol):
    """The simplex ratio test as a loop over every basis row: the reference
    for milp._ratio_test. Returns (blocking row or -1, step length)."""
    t_best = float("inf")
    r_block = -1
    for i in range(len(step)):
        si = step[i]
        if si > piv_tol:
            bound = lb[basis[i]]
        elif si < -piv_tol:
            bound = ub[basis[i]]
        else:
            continue
        if not np.isfinite(bound):
            continue
        t_i = max(0.0, (bvals[i] - bound) / si)
        if t_i < t_best - 1e-12 or (
            t_i < t_best + 1e-12
            and (r_block < 0 or basis[i] < basis[r_block])
        ):
            t_best = t_i
            r_block = i
    return r_block, t_best


def row_entries(lp: LinearProgram, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r's variable indices and coefficients: slices of the LP's
    row-compressed arrays."""
    a, b = lp.indptr[r], lp.indptr[r + 1]
    return lp.indices[a:b], lp.data[a:b]


def reference_standard_matrix(lp: LinearProgram, rows=None) -> np.ndarray:
    """The standard form's A as a dense m x (n + m) array, the given rows of lp
    (default all) beside an identity for their slacks: the reference for
    milp._StandardForm's compressed columns."""
    rows = range(lp.n_rows) if rows is None else [int(i) for i in rows]
    A = np.zeros((len(rows), lp.n_vars + len(rows)))
    for pos, i in enumerate(rows):
        idx, coef = row_entries(lp, i)
        A[pos, idx] = coef
        A[pos, lp.n_vars + pos] = 1.0
    return A


def reference_reduced_costs(A: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c - A.T @ y with a dense A: the reference for milp's pricing by entries."""
    return c - A.T @ y


def reference_network_rows(inst) -> list[tuple[dict[int, float], float, float]]:
    """The thermal and voltage rows of a built problem, hour by hour, as the
    bus-by-bus loop builds them: the reference for build_problem's block form.
    Returns (coefficients, lo, hi) per row."""
    agg, model, grid = inst.agg, inst.model, inst.grid
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    node_bus = [pos[bid] for bid in inst.elig_nodes]
    s_max = [ln.s_max for ln in grid.lines]
    vmin2 = [grid.buses[pos[bid]].vmin**2 for bid in model.bus_order]
    vmax2 = [grid.buses[pos[bid]].vmax**2 for bid in model.bus_order]
    rows = []
    for k in range(len(inst.hours)):
        def p_terms(j):
            return {int(inst.prod_idx[k, e, 0]): 1.0
                    for e, b in enumerate(node_bus) if b == j}

        def add(coeffs, terms, a):
            for var, c in terms.items():
                coeffs[var] = coeffs.get(var, 0.0) + a * c

        inj_const = agg.nonelig_prod[k] - agg.demand_p[k]
        for l in range(len(grid.lines)):
            coeffs, const = {}, 0.0
            for nsl, bid in enumerate(model.bus_order):
                a = model.flow_map[l, nsl]
                if a != 0.0:
                    const += a * inj_const[pos[bid]]
                    add(coeffs, p_terms(pos[bid]), a)
            rows.append((coeffs, -s_max[l] - const, s_max[l] - const))
        for n in range(len(model.bus_order)):
            coeffs, const = {}, SLACK_VOLTAGE**2
            for nsl, bid in enumerate(model.bus_order):
                kp, kq = model.voltage_map_p[n, nsl], model.voltage_map_q[n, nsl]
                if kp != 0.0:
                    const += kp * inj_const[pos[bid]]
                    add(coeffs, p_terms(pos[bid]), kp)
                if kq != 0.0:
                    const += kq * (-agg.demand_q[k, pos[bid]])
            rows.append((coeffs, vmin2[n] - const, vmax2[n] - const))
    return rows


def reference_trigger_rows(inst, scal_max: float = SolverConfig().scal_max):
    """The feed-in block of a built problem, one (hour, node) at a time in
    Python floats, big-M included (avail + fl * cap + R + 1 at scal_max,
    inputs checked nonnegative): the reference for build_problem's array
    form. Each availability row, p + sp - avail_coef * scal = avail_const,
    adds up the node's eligible units from grid.gens one by one in grid
    order, not from node_aggregates. scal_max must be the one the problem
    was built with. Returns ({row name: (indices, coefficients, lo, hi)} for
    every avail, pin_hi, pin_lo and spill row, {curt_on variable:
    (lb, ub)}, big-M as an (H, E) array)."""
    agg, fl, s = inst.agg, inst.scenario.fl, inst.scal_idx
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    elig = [g for g in inst.grid.gens if g.kind in inst.scenario.eligible_kinds()]
    s_lo, s_hi = inst.lp.lb[s], inst.lp.ub[s]
    rows, bounds, big_m = {}, {}, np.zeros(inst.alpha_idx.shape)
    for k, hour in enumerate(inst.hours):
        for e, bid in enumerate(inst.elig_nodes):
            i, a = pos[bid], int(inst.alpha_idx[k, e])
            p, sp = inst.prod_idx[k, e].tolist()
            unit_c = unit_k = cand_cap = 0.0
            for g in elig:
                if g.bus == bid and g.kind == "pv_candidate":
                    unit_k += g.p_max * float(g.profile[hour])
                    cand_cap += g.p_max
                elif g.bus == bid:
                    unit_c += g.p_max * float(g.profile[hour])
            idx, coef = ([s], [-unit_k]) if cand_cap > 0.0 else ([], [])
            rows[f"avail[{k},{bid}]"] = (idx + [p, sp], coef + [1.0, 1.0], unit_c, unit_c)
            avail_at = float(agg.avail_const[k, i] + agg.avail_coef[k, i] * scal_max)
            fl_cap_at = fl * float(agg.cap_const[i] + agg.cap_coef[i] * scal_max)
            res = float(agg.residual[k, i])
            if min(avail_at, fl_cap_at, res) < 0:
                raise ValueError("big-M inputs must be nonnegative")
            m = big_m[k, e] = avail_at + fl_cap_at + res + 1.0
            slope = float(agg.avail_coef[k, i] - fl * agg.cap_coef[i])
            inter = float(agg.avail_const[k, i] - fl * agg.cap_const[i] - agg.residual[k, i])
            p_ends = (inter + slope * s_lo, inter + slope * s_hi)
            if min(p_ends) >= 0.0:
                bounds[a] = (1.0, 1.0)
            elif max(p_ends) < 0.0:
                bounds[a] = (0.0, 0.0)
            else:
                bounds[a] = (0.0, 1.0)
            cap_c, cap_k = float(agg.cap_const[i]), float(agg.cap_coef[i])
            rows[f"pin_hi[{k},{bid}]"] = ([s, p, a], [0.0 - fl * cap_k, 1.0, m],
                                          -INF, m + fl * cap_c + res)
            rows[f"pin_lo[{k},{bid}]"] = ([s, p, a], [0.0 - fl * cap_k, 1.0, -m],
                                          -m + fl * cap_c + res, INF)
            rows[f"spill[{k},{bid}]"] = ([sp, a], [1.0, -m], -INF, 0.0)
    return rows, bounds, big_m


@dataclass
class RuleInjections(RuleState):
    """The oracle's rule state plus the bus order and the rule's triggers."""

    bus_order: tuple[str, ...]          # all buses, grid order
    alpha: np.ndarray                   # (H, N) bool, cap active


def rule_injections(grid: Grid, scenario: Scenario, scal: float,
                    hours: tuple[int, ...] | None = None) -> RuleInjections:
    """Apply the feed-in rule at a fixed expansion factor; no optimization."""
    agg = node_aggregates(grid, scenario, hours)
    state = _rule_state(agg, scenario.fl, scal)
    cap = agg.cap_const + agg.cap_coef * scal
    alpha = (state.available_mw - scenario.fl * cap[None, :] - agg.residual) > 0.0
    return RuleInjections(**vars(state), bus_order=agg.bus_order, alpha=alpha)


@dataclass(frozen=True)
class EnumerationResult:
    status: str
    scal: float | None
    objective: float | None
    x: np.ndarray | None
    n_assignments: int
    n_feasible: int
    solutions: tuple[np.ndarray, ...] = ()      # each feasible assignment's LP optimum


def enumerate_alpha(grid: Grid, scenario: Scenario,
                    cfg: SolverConfig | None = None, *,
                    fix_scal: float | None = None,
                    max_free: int = 20) -> EnumerationResult:
    """Brute-force the MILP: one LP per assignment of the free triggers.

    Exponential by design; refuses more than max_free free binaries. The
    pre-fixing inside build_problem already removes every trigger whose
    premise cannot change sign, so only genuinely ambiguous node-hours are
    enumerated. Each assignment's LP bounds scal to where every bit agrees
    with its premise (1 needs premise >= 0, 0 needs premise <= 0, both hold
    at the root); an assignment whose interval is empty is not solved. fix_scal
    pins scal, and with it every trigger, to one value.
    """
    inst = build_problem(grid, scenario, cfg)
    lp, s = inst.lp, inst.scal_idx
    base_lb = list(lp.lb)
    base_ub = list(lp.ub)
    premise = dict(zip(inst.binaries, zip(inst.slope.ravel().tolist(),
                                          inst.inter.ravel().tolist())))
    best_obj = None
    best_x = None
    solutions = []
    n_tried = 0
    try:
        if fix_scal is not None:
            lp.lb[s] = lp.ub[s] = float(fix_scal)
            a_lo, a_hi = indicator_bounds(inst.slope, inst.inter, fix_scal, fix_scal)
            for j, lo, hi in zip(inst.binaries, a_lo.ravel().tolist(), a_hi.ravel().tolist()):
                lp.lb[j], lp.ub[j] = lo, hi
        free = [j for j in inst.binaries if lp.lb[j] < lp.ub[j]]
        if len(free) > max_free:
            raise OracleError(
                f"{len(free)} free binaries exceed the enumeration guard of {max_free}")
        s_lo, s_hi = lp.lb[s], lp.ub[s]
        for bits in itertools.product((0.0, 1.0), repeat=len(free)):
            n_tried += 1
            lo, hi = s_lo, s_hi
            for j, v in zip(free, bits):
                lp.lb[j] = v
                lp.ub[j] = v
                slope, inter = premise[j]
                if v == 0.0:                  # slope * scal + inter >= 0 from here on
                    slope, inter = -slope, -inter
                if slope > 0.0:
                    lo = max(lo, -inter / slope)
                elif slope < 0.0:
                    hi = min(hi, -inter / slope)
                elif inter < 0.0:
                    hi = -INF
            if lo > hi:
                continue
            lp.lb[s], lp.ub[s] = lo, hi
            sol = solve_lp(lp, cfg)
            if sol.status == "optimal":
                solutions.append(sol.x.copy())
                if best_obj is None or sol.objective < best_obj - 1e-12:
                    best_obj, best_x = sol.objective, solutions[-1]
    finally:
        lp.lb[:] = base_lb
        lp.ub[:] = base_ub
    if best_obj is None:
        return EnumerationResult("infeasible", None, None, None, n_tried, 0)
    return EnumerationResult("optimal", float(best_x[s]), best_obj,
                             best_x, n_tried, len(solutions), tuple(solutions))


def _fmt(v: float) -> str:
    return repr(float(v))


def dump_lp(problem: LinearProgram | MILProblem) -> str:
    """Plain-text dump (objective, rows, bounds, binaries); bit-exact."""
    if isinstance(problem, MILProblem):
        lp, binaries = problem.lp, problem.binaries
    else:
        lp, binaries = problem, ()
    out = ["Minimize"]
    terms = [f"{'+' if c >= 0 else '-'} {_fmt(abs(c))} {lp.names[j]}"
             for j, c in enumerate(lp.obj) if c != 0.0]
    out.append(" obj: " + (" ".join(terms) if terms else "0"))
    out.append("Subject To")
    for r, (lo, hi, name) in enumerate(zip(lp.row_lo.tolist(), lp.row_hi.tolist(),
                                           lp.row_names)):
        idx, coef = row_entries(lp, r)
        body = " ".join(
            f"{'+' if c >= 0 else '-'} {_fmt(abs(c))} {lp.names[j]}"
            for j, c in zip(idx.tolist(), coef.tolist())
        )
        out.append(f" {name}: {_fmt(lo)} <= {body} <= {_fmt(hi)}")
    out.append("Bounds")
    for j in range(lp.n_vars):
        out.append(f" {_fmt(lp.lb[j])} <= {lp.names[j]} <= {_fmt(lp.ub[j])}")
    if binaries:
        out.append("Binaries")
        out.append(" " + " ".join(lp.names[j] for j in sorted(binaries)))
    out.append("End")
    return "\n".join(out) + "\n"
