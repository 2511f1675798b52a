"""Closed-form reference engine for the expansion question.

The MILP in formulation.py prices its way to the answer; this module gets
there directly. For a fixed expansion factor the feed-in cap has a closed
form per node and hour (curtailment_rule), injections follow, and the
linearized network mapping turns them into flows and voltages whose margins
to their bounds come from one kernel, headroom. Every upper-bound row is
concave and nondecreasing in the factor, so the maximum factor falls out of
an exact tangent search (max_scal_bisection).

Everything here is vectorized over hours, so full-year studies stay cheap.
The module shares the node aggregation and the network model with the MILP
builder but none of its constraint machinery, which is what makes it a
usable cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .formulation import (
    EnergyAccount,
    NodeAggregates,
    PlanResult,
    Scenario,
    curtailment_rule,
    energy_account,
    node_aggregates,
    unit_dispatch,
)
from .grid import Grid
from .milp import SolverConfig
from .network import LinearNetworkModel, build_linear_model, evaluate_linear


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str          # thermal | v_high | v_low
    element: str       # line id or bus id
    hour: int          # grid hour index
    amount: float      # MW beyond s_max, or p.u.^2 beyond the band


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    scal: float
    violations: tuple[Violation, ...]   # capped listing, worst kept implicitly
    n_violations: int
    worst_thermal_mw: float
    worst_voltage_pu2: float


@dataclass(frozen=True)
class ScalSearch:
    status: str                          # ok | infeasible_at_zero
    scal_star: float | None
    evaluations: int                     # passes: the check at zero, then tangent steps
    hit_domain_max: bool
    report_zero: FeasibilityReport
    binding: tuple[str, str, int] | None = None   # (kind, element, hour) that stops it

    def __str__(self) -> str:
        return (f"{self.status}: scal* = {self.scal_star} after {self.evaluations} "
                f"pass(es), binding {self.binding}")


@dataclass
class RuleState:
    """One evaluation of the feed-in rule for every resolved hour."""

    available_mw: np.ndarray            # (H, N) eligible availability
    curtailed_mw: np.ndarray            # (H, N)
    injection_p: np.ndarray             # (H, N) net MW, generation positive
    injection_q: np.ndarray             # (H, N) net Mvar


def _rule_state(agg: NodeAggregates, fl: float, scal: float) -> RuleState:
    avail = agg.avail_const + agg.avail_coef * scal
    cap = agg.cap_const + agg.cap_coef * scal
    produced, curtailed = curtailment_rule(avail, cap[None, :], fl, agg.residual)
    return RuleState(available_mw=avail, curtailed_mw=curtailed,
                     injection_p=produced + agg.nonelig_prod - agg.demand_p,
                     injection_q=-agg.demand_q)


def _network_arrays(state: RuleState,
                    model: LinearNetworkModel) -> tuple[np.ndarray, np.ndarray]:
    flows, v2 = evaluate_linear(model, state.injection_p[:, model.bus_cols],
                                state.injection_q[:, model.bus_cols])
    return np.atleast_2d(flows), np.atleast_2d(v2)


def headroom(model: LinearNetworkModel, flows: np.ndarray,
             v2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Margins to every bound of the model, negative where violated: thermal
    s_max - |flow| (H, L), v_high vmax^2 - v^2 (H, N) and v_low v^2 - vmin^2
    (H, N)."""
    return model.s_max - np.abs(flows), model.vmax2 - v2, v2 - model.vmin2


def flagged_rows(values, masks, hours: tuple[int, ...],
                 line_order: tuple[str, ...], bus_order: tuple[str, ...],
                 limit: int | None = None) -> tuple[int, list[tuple]]:
    """Count and first `limit` (kind, element, hour, value) rows where masks
    hold, by hour, then thermal lines, v_high buses and v_low buses."""
    names = ([("thermal", l, 0, j) for j, l in enumerate(line_order)]
             + [(kind, b, blk, j) for blk, kind in ((1, "v_high"), (2, "v_low"))
                for j, b in enumerate(bus_order)])
    ks, cs = np.nonzero(np.concatenate(masks, axis=1))
    rows = []
    for k, c in zip(ks[:limit].tolist(), cs[:limit].tolist()):
        kind, element, blk, j = names[c]
        rows.append((kind, element, hours[k], float(values[blk][k, j])))
    return int(ks.size), rows


def feasible_at(grid: Grid, scenario: Scenario, scal: float,
                cfg: SolverConfig | None = None, *,
                agg: NodeAggregates | None = None,
                model: LinearNetworkModel | None = None,
                max_listed: int = 50) -> FeasibilityReport:
    """Check every thermal and voltage bound at a fixed expansion factor."""
    cfg = cfg or SolverConfig()
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    model = model or build_linear_model(grid)
    flows, v2 = _network_arrays(_rule_state(agg, scenario.fl, scal), model)
    margins = headroom(model, flows, v2)
    n_total, rows = flagged_rows(margins,
                                 tuple(m < -cfg.feasibility_tol for m in margins),
                                 agg.hours, model.line_order, model.bus_order,
                                 max_listed)
    least = [float(np.min(m, initial=np.inf)) for m in margins]
    return FeasibilityReport(
        feasible=n_total == 0,
        scal=scal,
        violations=tuple(Violation(kind, el, h, -m) for kind, el, h, m in rows),
        n_violations=n_total,
        worst_thermal_mw=-least[0],
        worst_voltage_pu2=-min(least[1], least[2]),
    )


_BLOCK_HOURS = 512      # hours per batch of the search; bounds its memory on annual runs


def max_scal_bisection(grid: Grid, scenario: Scenario,
                       cfg: SolverConfig | None = None, *,
                       agg: NodeAggregates | None = None,
                       model: LinearNetworkModel | None = None) -> ScalSearch:
    """Largest expansion factor whose whole prefix [0, s] stays feasible.

    Eligible production min(avail, FL * cap + R) is concave, piecewise linear
    and nondecreasing in s, and under LinDistFlow every upper-bound row (export
    flow, squared voltage) is a nonnegative combination of it, so a tangent
    step from the feasible side never overshoots. Each pass moves to the
    nearest tangent root of the hard bounds over all rows and hours, capped at
    scal_max, until the step falls below 1e-12 * (1 + s); that row binds.
    Lower-bound rows only loosen as s grows and are checked at s = 0, where a
    violation gives infeasible_at_zero instead of a number. The name is kept
    from the bisection this search replaced.
    """
    cfg = cfg or SolverConfig()
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    model = model or build_linear_model(grid)
    report_zero = feasible_at(grid, scenario, 0.0, cfg, agg=agg, model=model)
    if not report_zero.feasible:
        return ScalSearch("infeasible_at_zero", None, 1, False, report_zero)
    blocks = [agg.hour_block(lo, lo + _BLOCK_HOURS)
              for lo in range(0, len(agg.hours), _BLOCK_HOURS)]
    s = 0.0
    for passes in range(2, 102):        # a few passes settle it; 100 caps rounding noise
        t, binding = min((_tangent_step(b, model, scenario.fl, s) for b in blocks),
                         key=lambda step: step[0])
        if s + t >= cfg.scal_max:
            return ScalSearch("ok", cfg.scal_max, passes, True, report_zero)
        if t <= 1e-12 * (1.0 + s):
            break
        s += t
    return ScalSearch("ok", s, passes, False, report_zero, binding)


def _tangent_step(agg: NodeAggregates, model: LinearNetworkModel,
                  fl: float, s: float) -> tuple[float, tuple[str, str, int] | None]:
    """Shortest step to a hard upper bound along the tangents at s, and its row."""
    state = _rule_state(agg, fl, s)
    flows, v2 = _network_arrays(state, model)
    # right-derivative of min(avail, fl * cap + R): the smaller slope at a kink
    over = state.available_mw - fl * (agg.cap_const + agg.cap_coef * s) - agg.residual
    a, f = agg.avail_coef, np.broadcast_to(fl * agg.cap_coef, over.shape)
    dp = np.minimum(np.where(over > 0, f, a), np.where(over < 0, a, f))
    dp = dp[:, model.bus_cols]
    gap = np.concatenate([model.s_max - flows, model.vmax2 - v2], axis=1)
    rate = np.concatenate([dp @ model.flow_map.T, dp @ model.voltage_map_p.T], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(rate > 0, np.maximum(gap, 0.0) / rate, np.inf)
    if not np.isfinite(step).any():
        return np.inf, None
    k, c = np.unravel_index(np.argmin(step), step.shape)
    n = len(model.line_order)
    row = ("thermal", model.line_order[c]) if c < n else ("v_high", model.bus_order[c - n])
    return float(step[k, c]), row + (agg.hours[k],)


# ---------------------------------------------------------------------------
# plan assembly without the MILP


def oracle_plan(grid: Grid, scenario: Scenario, scal: float, *,
                agg: NodeAggregates | None = None,
                model: LinearNetworkModel | None = None) -> PlanResult:
    """PlanResult-shaped answer from the closed-form path at expansion factor scal.

    Unit-level production splits node curtailment pro rata by availability;
    node totals, flows and voltages are the quantities that are actually
    pinned down. The plan's alpha stays empty: the rule has no trigger
    variables.
    """
    model = model or build_linear_model(grid)
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    state = _rule_state(agg, scenario.fl, scal)
    flows, v2 = _network_arrays(state, model)
    hours = agg.hours
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}

    def pro_rata(u, g, a_g):
        i = pos[g.bus]
        node_av = state.available_mw[:, i]
        share = np.divide(a_g, node_av, out=np.zeros(len(hours)), where=node_av > 0)
        curtailed = state.curtailed_mw[:, i] * share
        return a_g - curtailed, curtailed

    production, curtail, avail = unit_dispatch(grid, scenario, hours, scal, pro_rata)

    net = state.injection_p.sum(axis=1)           # lossless: slack picks this up
    net_q = state.injection_q.sum(axis=1)
    imports = np.maximum(0.0, -net)
    exports = np.maximum(0.0, net)
    q_imp = np.maximum(0.0, -net_q)
    q_exp = np.maximum(0.0, net_q)
    dh = grid.hour_duration_h
    c = scenario.costs
    objective = float(np.sum(dh * (c.import_eur_mwh * (imports + q_imp)
                                   - c.export_eur_mwh * (exports + q_exp))))

    return PlanResult(
        status="optimal",
        engine="oracle",
        scal=float(scal),
        added_capacity_mw=float(scal) * agg.candidate_base_total,
        objective_eur=objective,
        hours=hours,
        hour_duration_h=dh,
        bus_order=model.bus_order,
        line_order=model.line_order,
        production_mw=production,
        curtailment_mw=curtail,
        available_mw=avail,
        alpha={},
        flows_mw=flows,
        voltages_pu2=v2,
        imports_mw=imports,
        exports_mw=exports,
        unserved_mwh=0.0,
        surplus_mwh=0.0,
    )


@dataclass
class AnnualResult:
    """Energy totals at a fixed expansion factor over all hours, and the
    number of hours in which some network bound is violated."""

    scal: float
    account: EnergyAccount
    violation_hours: int


def annual_simulate(grid: Grid, scenario: Scenario, scal: float,
                    cfg: SolverConfig | None = None, *,
                    model: LinearNetworkModel | None = None) -> AnnualResult:
    """The plan at a fixed expansion factor over every grid hour, its energy
    account with demand, and the number of hours that violate a bound.

    The scenario's hour selection is ignored on purpose: this is the
    full-series accounting pass. The account is the one an annual plan or
    sweep cell reports at the same factor.
    """
    if not 0.0 <= scal < math.inf:
        raise OracleError(f"scal must be finite and >= 0, got {scal}")
    cfg = cfg or SolverConfig()
    model = model or build_linear_model(grid)
    agg = node_aggregates(grid, scenario, tuple(range(grid.hour_count)))
    plan = oracle_plan(grid, scenario, scal, agg=agg, model=model)
    dh = grid.hour_duration_h
    account = replace(energy_account(plan),
                      demand_mwh=float(agg.demand_p.sum(axis=1).sum() * dh))
    margins = headroom(model, plan.flows_mw, plan.voltages_pu2)
    bad_hour = np.logical_or.reduce([(m < -cfg.feasibility_tol).any(axis=1)
                                     for m in margins])
    return AnnualResult(float(scal), account, int(bad_hour.sum()))
