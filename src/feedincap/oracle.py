"""Closed-form reference engine for the expansion question.

The MILP in formulation.py maximises scal by branch and bound over scal
intervals; this module gets there directly. For a fixed expansion
factor the feed-in cap has a closed form per node and hour (curtailment_rule),
injections follow, and the linearized network mapping turns them into flows
and voltages whose margins to their bounds come from one kernel, headroom.
Every upper-bound row is concave and nondecreasing in the factor, so the
maximum factor falls out of an exact tangent search (max_scal_bisection),
which search_limits runs for several feed-in limits at once.

Everything here is vectorized over hours, so full-year studies stay cheap.
The module shares the node aggregation and the network model with the MILP
builder but none of its constraint machinery, which is what makes it a
usable cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .formulation import (
    EnergyAccount,
    NodeAggregates,
    PlanResult,
    Scenario,
    curtailment_rule,
    energy_account,
    node_aggregates,
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
    """The feed-in rule at every resolved hour: (H, N) arrays, or (K, H, N) for
    K stacked limits, all sharing the aggregate's own (H, N) demand_q."""

    available_mw: np.ndarray            # (H, N) eligible availability
    curtailed_mw: np.ndarray            # (H, N)
    injection_p: np.ndarray             # (H, N) net MW, generation positive
    demand_q: np.ndarray                # (H, N) Mvar, the aggregate's own array

    @property
    def injection_q(self) -> np.ndarray:
        return -self.demand_q           # (H, N) net Mvar, made only when read


def _rule_state(agg: NodeAggregates, fl, scal) -> RuleState:
    """The feed-in rule at (fl, scal): scalars give (H, N) arrays, and fl and
    scal as (K, 1, 1) arrays give K stacked (K, H, N) states (the search's own
    factors, left unchecked)."""
    if not isinstance(scal, np.ndarray) and not 0.0 <= scal < math.inf:
        raise OracleError(f"scal must be finite and >= 0, got {scal}")
    avail = agg.avail_const + agg.avail_coef * scal
    cap = agg.cap_const + agg.cap_coef * scal
    produced, curtailed = curtailment_rule(avail, cap, fl, agg.residual)
    return RuleState(available_mw=avail, curtailed_mw=curtailed,
                     injection_p=produced + agg.nonelig_prod - agg.demand_p,
                     demand_q=agg.demand_q)


def _network_arrays(state: RuleState,
                    model: LinearNetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Flows and squared voltages, one row per hour; a stacked (K, H, N) state
    gives K * H rows, limit by limit."""
    p, q = state.injection_p[..., model.bus_cols], -state.demand_q[..., model.bus_cols]
    if q.shape != p.shape:              # demand is the same for every stacked limit
        q = np.broadcast_to(q, p.shape)
    shape = (math.prod(p.shape[:-1]), model.n_buses)
    flows, v2 = evaluate_linear(model, p.reshape(shape), q.reshape(shape))
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
    ks, cs = np.nonzero(np.concatenate(masks, axis=1))
    n_lines, n_buses = len(line_order), len(bus_order)
    rows = []
    for k, c in zip(ks[:limit].tolist(), cs[:limit].tolist()):
        if c < n_lines:
            rows.append(("thermal", line_order[c], hours[k], float(values[0][k, c])))
        else:
            blk, j = divmod(c - n_lines, n_buses)
            rows.append((("v_high", "v_low")[blk], bus_order[j], hours[k],
                         float(values[blk + 1][k, j])))
    return int(ks.size), rows


_BLOCK_ROWS = 512       # (limit, hour) rows per batch of the search; bounds its memory
_MAX_LISTED = 50        # violations a report lists


def feasible_at(grid: Grid, scenario: Scenario, scal: float,
                cfg: SolverConfig | None = None, *,
                agg: NodeAggregates | None = None,
                model: LinearNetworkModel | None = None,
                max_listed: int = _MAX_LISTED) -> FeasibilityReport:
    """Check every thermal and voltage bound at a fixed expansion factor."""
    cfg = cfg or SolverConfig()
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    model = model or build_linear_model(grid)
    flows, v2 = _network_arrays(_rule_state(agg, scenario.fl, scal), model)
    check = _Check(scal, cfg.feasibility_tol, max_listed)
    check.add(model, headroom(model, flows, v2), agg.hours)
    return check.report()


@dataclass
class _Check:
    """One FeasibilityReport at scal, gathered over blocks of hours in order."""

    scal: float
    tol: float
    max_listed: int
    n_violations: int = 0
    rows: list = field(default_factory=list)
    worst_thermal: float = math.inf     # least thermal margin, MW

    def add(self, model: LinearNetworkModel, margins, hours: tuple[int, ...]) -> None:
        n, rows = flagged_rows(margins, tuple(m < -self.tol for m in margins), hours,
                               model.line_order, model.bus_order,
                               self.max_listed - len(self.rows))
        self.n_violations += n
        self.rows += rows
        self.worst_thermal = min(self.worst_thermal,
                                 float(np.min(margins[0], initial=np.inf)))

    def report(self) -> FeasibilityReport:
        return FeasibilityReport(
            feasible=self.n_violations == 0,
            scal=self.scal,
            violations=tuple(Violation(kind, el, h, -m) for kind, el, h, m in self.rows),
            n_violations=self.n_violations,
            worst_thermal_mw=-self.worst_thermal,
        )


def search_limits(grid: Grid, scenario: Scenario, fls: tuple[float, ...],
                  cfg: SolverConfig | None = None, *,
                  agg: NodeAggregates | None = None,
                  model: LinearNetworkModel | None = None) -> tuple[ScalSearch, ...]:
    """max_scal_bisection for each feed-in limit in fls, searched together.

    The scenario gives everything but the limit, and agg is node_aggregates
    for it: the limit does not enter the aggregates. Every pass stacks the
    limits still open, each at its own s, into (limit, hour) rows, batched
    by at most _BLOCK_ROWS rows, and takes each limit's own shortest step and
    binding row; the first pass, at s = 0, also gives each limit its own
    FeasibilityReport there. A limit drops out once it is infeasible at
    s = 0, or its step falls below 1e-12 * (1 + s) or reaches scal_max. One
    limit gets the batches and the arithmetic of a lone search (512-hour
    blocks); several limits compute the same rows in larger matrix
    products, which may round the last bits of scal* differently.
    """
    cfg = cfg or SolverConfig()
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    model = model or build_linear_model(grid)
    out: list[ScalSearch | None] = [None] * len(fls)
    checks = [_Check(0.0, cfg.feasibility_tol, _MAX_LISTED) for _ in fls]
    s = dict.fromkeys(range(len(fls)), 0.0)     # the limits still open
    binding = dict.fromkeys(s)
    for passes in range(2, 102):        # a few passes settle it; 100 caps rounding noise
        if not s:
            break
        keys = list(s)
        steps = _tangent_steps(agg, model, [fls[k] for k in keys], [s[k] for k in keys],
                               checks)
        if checks:
            zero, checks = [c.report() for c in checks], []
        for k, (t, row) in zip(keys, steps):
            if not zero[k].feasible:
                out[k] = ScalSearch("infeasible_at_zero", None, 1, False, zero[k])
            elif s[k] + t >= cfg.scal_max:
                out[k] = ScalSearch("ok", cfg.scal_max, passes, True, zero[k])
            elif t <= 1e-12 * (1.0 + s[k]):
                out[k] = ScalSearch("ok", s[k], passes, False, zero[k], row)
            else:
                s[k] += t
                binding[k] = row
                continue
            del s[k]
    for k in s:                         # still stepping after 100 passes
        out[k] = ScalSearch("ok", s[k], 101, False, zero[k], binding[k])
    return tuple(out)


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
    violation gives infeasible_at_zero instead of a number. This is the
    one-limit call of search_limits, in 512-hour blocks. The name is kept
    from the bisection this search replaced.
    """
    (search,) = search_limits(grid, scenario, (scenario.fl,), cfg, agg=agg, model=model)
    return search


def _tangent_steps(agg: NodeAggregates, model: LinearNetworkModel, fls: list[float],
                   ss: list[float], checks: list[_Check]
                   ) -> list[tuple[float, tuple[str, str, int] | None]]:
    """Each limit's shortest step from its own s to a hard upper bound along
    the tangents there, and the (kind, element, hour) row it reaches. Given
    one check per limit, each also gathers its limit's bounds at its s."""
    k_open = len(fls)
    fl = np.array(fls)[:, None, None]
    s = np.array(ss)[:, None, None]
    n_lines = len(model.line_order)
    width = max(1, _BLOCK_ROWS // k_open)
    best = [(np.inf, None)] * k_open
    for lo in range(0, len(agg.hours), width):
        b = agg.hour_block(lo, lo + width)
        state = _rule_state(b, fl, s)
        flows, v2 = _network_arrays(state, model)
        if checks:
            margins = [m.reshape(k_open, len(b.hours), m.shape[1])
                       for m in headroom(model, flows, v2)]
            for k, check in enumerate(checks):
                check.add(model, tuple(m[k] for m in margins), b.hours)
        # right-derivative of min(avail, fl * cap + R): the smaller slope at a kink
        over = state.available_mw - fl * (b.cap_const + b.cap_coef * s) - b.residual
        a, f = b.avail_coef, np.broadcast_to(fl * b.cap_coef, over.shape)
        dp = np.minimum(np.where(over > 0, f, a), np.where(over < 0, a, f))
        dp = dp[..., model.bus_cols].reshape(flows.shape[0], model.n_buses)
        gap = np.concatenate([model.s_max - flows, model.vmax2 - v2], axis=1)
        rate = np.concatenate([dp @ model.flow_map.T, dp @ model.voltage_map_p.T], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(rate > 0, np.maximum(gap, 0.0) / rate, np.inf)
        if not step.size:                   # no bound to reach
            continue
        step = step.reshape(k_open, -1)     # limit by limit: hour, then row
        for k, i in enumerate(np.argmin(step, axis=1).tolist()):
            t = float(step[k, i])
            if t < best[k][0]:              # the earlier block keeps a tie
                h, c = divmod(i, gap.shape[1])
                row = (("thermal", model.line_order[c]) if c < n_lines
                       else ("v_high", model.bus_order[c - n_lines]))
                best[k] = (t, row + (b.hours[h],))
    return best


# ---------------------------------------------------------------------------
# plan assembly without the MILP


def oracle_plan(grid: Grid, scenario: Scenario, scal: float, *,
                agg: NodeAggregates | None = None,
                model: LinearNetworkModel | None = None) -> PlanResult:
    """The plan of the closed-form path at expansion factor scal.

    Non-eligible units run at full availability p_max * cf. An eligible unit's
    availability is (p_max * scal for candidates, else p_max) * cf, and its
    node's curtailment is split pro rata by availability; node totals, flows
    and voltages are the quantities that are actually pinned down. The
    per-unit series come out of agg's unit columns as C-ordered (G, H)
    matrices, rows in grid.gens order. energy_account's row sums equal the
    sums of the 1-D unit series only for C-contiguous rows.
    """
    model = model or build_linear_model(grid)
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    state = _rule_state(agg, scenario.fl, scal)
    flows, v2 = _network_arrays(state, model)
    hours, at = agg.hours, agg.unit_at
    base = np.where(agg.unit_cand, agg.unit_p_max * scal, agg.unit_p_max)

    # one row per unit, C-ordered: a gathered column block would be F-ordered
    avail = agg.unit_cf * base[:, None]
    node_av = state.available_mw[:, at].T
    shared = node_av > 0
    shared &= agg.unit_elig[:, None]
    curtail = np.zeros_like(avail)          # the pro-rata share, then MW in place
    np.divide(avail, node_av, out=curtail, where=shared)
    del node_av, shared                     # at most three (G, H) floats at once
    curtail *= state.curtailed_mw[:, at].T
    production = avail - curtail

    net = state.injection_p.sum(axis=1)           # lossless: slack picks this up
    return PlanResult(
        scal=float(scal),
        added_capacity_mw=float(scal) * agg.candidate_base_total,
        hours=hours,
        hour_duration_h=grid.hour_duration_h,
        bus_order=model.bus_order,
        line_order=model.line_order,
        unit_ids=tuple(g.id for g in grid.gens),
        production_mw=production,
        curtailment_mw=curtail,
        available_mw=avail,
        flows_mw=flows,
        voltages_pu2=v2,
        imports_mw=np.maximum(0.0, -net),
        exports_mw=np.maximum(0.0, net),
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
