"""Builders and reference implementations shared across the test modules."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_array, vstack

from feedincap.grid import Bus, GenUnit, Grid, Line, tree_walk
from feedincap.formulation import Scenario, build_problem, node_aggregates
from feedincap.milp import INF, LinearProgram, MILProblem, SolverConfig, indicator_bounds
from feedincap.network import SLACK_VOLTAGE, NetworkError, build_linear_model, evaluate_linear
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


def reference_block_search(grid: Grid, scenario: Scenario, cfg: SolverConfig,
                           block_hours: int = 512) -> tuple:
    """One limit's tangent search, block after block of hours, each block's
    (h, N) rows in their own matrix products: the reference a one-limit
    search_limits must equal bit for bit. Returns (status, scal*, passes,
    hit_domain_max, binding)."""
    if not feasible_at(grid, scenario, 0.0, cfg).feasible:
        return "infeasible_at_zero", None, 1, False, None
    agg = node_aggregates(grid, scenario)
    model = build_linear_model(grid)
    fl, cols, n_lines = scenario.fl, model.bus_cols, len(model.line_order)

    def tangent_step(b, s):
        avail = b.avail_const + b.avail_coef * s
        cap = b.cap_const + b.cap_coef * s
        curtailed = np.maximum(0.0, avail - fl * cap - b.residual)
        p = avail - curtailed + b.nonelig_prod - b.demand_p
        flows, v2 = evaluate_linear(model, p[:, cols], -b.demand_q[:, cols])
        over = avail - fl * cap - b.residual
        f = np.broadcast_to(fl * b.cap_coef, over.shape)
        dp = np.minimum(np.where(over > 0, f, b.avail_coef),
                        np.where(over < 0, b.avail_coef, f))[:, cols]
        gap = np.concatenate([model.s_max - flows, model.vmax2 - v2], axis=1)
        rate = np.concatenate([dp @ model.flow_map.T, dp @ model.voltage_map_p.T], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(rate > 0, np.maximum(gap, 0.0) / rate, np.inf)
        if not np.isfinite(step).any():
            return np.inf, None
        k, c = np.unravel_index(np.argmin(step), step.shape)
        row = ("thermal", model.line_order[c]) if c < n_lines else \
            ("v_high", model.bus_order[c - n_lines])
        return float(step[k, c]), row + (b.hours[k],)

    blocks = [agg.hour_block(lo, lo + block_hours)
              for lo in range(0, len(agg.hours), block_hours)]
    s = 0.0
    for passes in range(2, 102):
        t, binding = min((tangent_step(b, s) for b in blocks), key=lambda st: st[0])
        if s + t >= cfg.scal_max:
            return "ok", cfg.scal_max, passes, True, None
        if t <= 1e-12 * (1.0 + s):
            break
        s += t
    return "ok", s, passes, False, binding


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


def row_entries(lp: LinearProgram, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r's variable indices and coefficients: slices of the LP's
    row-compressed arrays."""
    a, b = lp.indptr[r], lp.indptr[r + 1]
    return lp.indices[a:b], lp.data[a:b]


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def active_row_bounds(mip: MILProblem, values) -> tuple[np.ndarray, np.ndarray]:
    """The row bounds of mip.lp once binaries[i] takes values[i], one binary at
    a time: its on row is left out (bounds -inf, inf) where the value is 0,
    its off row where it is 1. The reference for solve_milp's row
    activation."""
    lo, hi = mip.lp.row_lo.copy(), mip.lp.row_hi.copy()
    for i, v in enumerate(values):
        for rows, active in ((mip.on_rows, v == 1.0), (mip.off_rows, v == 0.0)):
            if len(rows) and not active:
                lo[rows[i]], hi[rows[i]] = -INF, INF
    return lo, hi


def reference_lp(lp: LinearProgram, lb=None, ub=None, row_lo=None,
                 row_hi=None) -> tuple[str, np.ndarray | None]:
    """min lp.obj @ x over lp's rows within row_lo and row_hi and lb <= x <= ub
    (each default lp's own), solved by scipy's HiGHS with its primal and dual
    feasibility tolerances at 1e-10: the reference for solve_milp's
    elimination. A row free on both sides is left out. Returns ("optimal",
    x), ("infeasible", None) or ("unbounded", None); any other HiGHS outcome
    fails the calling test."""
    A = csr_array((lp.data, lp.indices, lp.indptr), shape=(lp.n_rows, lp.n_vars))
    lo = lp.row_lo if row_lo is None else row_lo
    hi = lp.row_hi if row_hi is None else row_hi
    eq, upper, lower = lo == hi, (lo < hi) & (hi < INF), (lo < hi) & (lo > -INF)
    bounds = np.column_stack([lp.lb if lb is None else lb, lp.ub if ub is None else ub])
    ub_rows = upper.any() or lower.any()
    res = linprog(np.asarray(lp.obj, dtype=float),
                  A_ub=vstack([A[upper], -A[lower]]) if ub_rows else None,
                  b_ub=np.concatenate([hi[upper], -lo[lower]]) if ub_rows else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=hi[eq] if eq.any() else None,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status not in HIGHS_STATUS:
        raise AssertionError(f"HiGHS ended with status {res.status}: {res.message}")
    return HIGHS_STATUS[res.status], res.x if res.status == 0 else None


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


def reference_trigger_rows(inst):
    """The feed-in block of a built problem, one (hour, node) at a time in
    Python floats: the reference for build_problem's array form. Each
    availability row, p + sp - avail_coef * scal = avail_const, adds up the
    node's eligible units from grid.gens one by one in grid order, not from
    node_aggregates. Returns ({row name: (indices, coefficients, lo, hi)} for
    every avail, pin and spill row, {curt_on variable: (lb, ub)}, {curt_on
    variable: (the name of the row it holds on, of the row it holds off)})."""
    agg, fl, s = inst.agg, inst.scenario.fl, inst.scal_idx
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    elig = [g for g in inst.grid.gens if g.kind in inst.scenario.eligible_kinds()]
    s_lo, s_hi = inst.lp.lb[s], inst.lp.ub[s]
    rows, bounds, gated = {}, {}, {}
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
            pin_at = fl * cap_c + float(agg.residual[k, i])
            idx, coef = ([s], [-fl * cap_k]) if cand_cap > 0.0 else ([], [])
            rows[f"pin[{k},{bid}]"] = (idx + [p], coef + [1.0], pin_at, pin_at)
            rows[f"spill[{k},{bid}]"] = ([sp], [1.0], -INF, 0.0)
            gated[a] = (f"pin[{k},{bid}]", f"spill[{k},{bid}]")
    return rows, bounds, gated


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
    """Brute-force the MILP: one LP per assignment of the free triggers, each
    solved by reference_lp over the rows the assignment activates
    (active_row_bounds).

    Exponential by design; refuses more than max_free free binaries. The
    pre-fixing inside build_problem already removes every trigger whose
    premise cannot change sign, so only genuinely ambiguous node-hours are
    enumerated. Each assignment's LP bounds scal to where every bit agrees
    with its premise (1 needs premise >= 0, 0 needs premise <= 0, both hold
    at the root); an assignment whose interval is empty is not solved. fix_scal
    pins scal, and with it every trigger, to one value.
    """
    inst = build_problem(grid, scenario, cfg)
    mip, lp, s = inst.mip, inst.lp, inst.scal_idx
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
            status, x = reference_lp(lp, None, None,
                                     *active_row_bounds(mip, [lp.lb[j] for j in inst.binaries]))
            if status == "optimal":
                solutions.append(x)
                objective = float(np.asarray(lp.obj) @ x)
                if best_obj is None or objective < best_obj - 1e-12:
                    best_obj, best_x = objective, x
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
    """Plain-text dump (objective, rows, bounds, binaries and the row each
    holds on and off); bit-exact."""
    if isinstance(problem, MILProblem):
        lp, binaries = problem.lp, problem.binaries
        gates = [(rows, v) for rows, v in ((problem.on_rows, 1), (problem.off_rows, 0))
                 if len(rows)]
    else:
        lp, binaries, gates = problem, (), []
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
    if gates:
        out.append("Indicators")
        out += [f" {lp.names[j]} = {v} -> {lp.row_names[rows[i]]}"
                for i, j in enumerate(binaries) for rows, v in gates]
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ACState:
    converged: bool
    iterations: int
    mismatch: float             # worst per-bus |dS|, p.u.
    voltages: np.ndarray        # complex p.u., non-slack buses in document order
    flow_p: np.ndarray          # MW per line at its downstream end, toward the slack
    losses_mw: float


def ac_sweep(grid: Grid, p_mw, q_mvar=None) -> ACState:
    """Backward/forward sweep on the exact AC equations: the reference for
    LinDistFlow. Injections are net MW/MVAr per non-slack bus in document
    order, as in evaluate_linear. It reads only the grid and its tree walk,
    never the linear model, and stops once every bus's apparent-power
    mismatch is at most 1e-8 p.u. or after 100 sweeps (converged False)."""
    for ln in grid.lines:
        if ln.r == 0.0 and ln.x == 0.0:
            raise NetworkError(f"line {ln.id} has zero impedance; AC sweep undefined")
    root = next(b.id for b in grid.buses if b.is_slack)
    parent, order = tree_walk(grid, root)
    ids = [b.id for b in grid.buses if b.id != root]
    n = len(ids)
    pos = {b: i for i, b in enumerate(ids + [root])}     # the slack is v's last entry
    walk = [pos[b] for b in order[1:]]                  # every parent before its children
    up = np.array([pos[parent[b][0]] for b in ids], dtype=np.intp)
    line = np.array([parent[b][1] for b in ids], dtype=np.intp)
    z = np.array([complex(grid.lines[i].r, grid.lines[i].x) for i in line.tolist()])
    q = np.zeros(n) if q_mvar is None else np.asarray(q_mvar, dtype=float)
    s = (np.asarray(p_mw, dtype=float) + 1j * q) / grid.base_mva
    v = np.full(n + 1, complex(SLACK_VOLTAGE, 0.0))

    def mismatch() -> tuple[float, np.ndarray]:
        j = (v[:n] - v[up]) / z                     # line currents, toward the slack
        inflow = np.append(j, 0.0)
        np.subtract.at(inflow, up, j)
        return float(np.max(np.abs(v[:n] * inflow[:n].conj() - s), initial=0.0)), j

    iterations, (mis, j) = 0, mismatch()
    while mis > 1e-8 and iterations < 100:
        acc = np.append((s / v[:n]).conj(), 0.0)
        for i in reversed(walk):                    # backward: sum currents upstream
            acc[up[i]] += acc[i]
        for i in walk:                              # forward: V_child = V_up + Z * J
            v[i] = v[up[i]] + z[i] * acc[i]
        iterations, (mis, j) = iterations + 1, mismatch()
    flow_p = np.zeros(len(grid.lines))
    flow_p[line] = (v[:n] * j.conj()).real * grid.base_mva
    return ACState(mis <= 1e-8, iterations, mis, v[:n].copy(), flow_p,
                   float(np.sum(np.abs(j) ** 2 * z.real) * grid.base_mva))


@dataclass(frozen=True)
class DeviationReport:
    max_dv_pu: float            # worst |V_linear - V_ac| over buses
    max_dflow_mw: float         # worst |flow_linear - flow_ac| over lines


def compare_models(grid: Grid, p_mw, q_mvar=None, model=None) -> DeviationReport:
    """LinDistFlow against the converged AC sweep at one operating point."""
    model = build_linear_model(grid) if model is None else model
    flows, v2 = evaluate_linear(model, p_mw, q_mvar)
    ac = ac_sweep(grid, p_mw, q_mvar)
    assert ac.converged, f"AC sweep mismatch {ac.mismatch:.3e} after {ac.iterations} sweeps"
    return DeviationReport(
        float(np.max(np.abs(np.sqrt(v2) - np.abs(ac.voltages)), initial=0.0)),
        float(np.max(np.abs(flows - ac.flow_p), initial=0.0)))
