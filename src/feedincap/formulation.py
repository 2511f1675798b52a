"""Builds the expansion-planning MILP and certifies its answer.

One continuous variable `scal` scales every candidate PV unit uniformly, and
the objective is -scal: the optimizer pushes `scal` up until a network limit
binds. The slack bus takes up whatever the lossless grid does not consume, so
the model needs no exchange variables or balance rows.

The feed-in cap works per node and hour on the "eligible" units (candidates
under case "a"; candidates plus all existing PV under case "b"): whenever
eligible availability net of concurrent residual demand would exceed FL times
the eligible installed capacity, a binary trigger flips and production is
pinned to exactly that cap plus the residual-demand credit. The trigger's
rule lives in its premise, which milp.solve_milp decides; the LP rows only
say what each value of the trigger does to production. Residual demand
is what is left of local consumption after non-eligible generation at the
node (wind, hydro, fossil, and under case "a" all existing PV) has covered
its share. The MILP therefore plans nodes, not units: how a node's output
splits between its units decides nothing, and oracle.oracle_plan reports it.

Network limits enter as affine rows in the injections (see network.py), so
the model carries no flow or voltage variables: one thermal row per line and
one voltage row per bus and hour, each with both its limits. ProblemInstance.mip
keeps every one of these rows in the MILP that milp.solve_milp solves.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .grid import PV_KINDS, Grid, _number
from .milp import (
    INF,
    LinearProgram,
    MILPSolution,
    MILProblem,
    SolverConfig,
    indicator_bounds,
)
from .network import SLACK_VOLTAGE, LinearNetworkModel, build_linear_model, evaluate_linear


class FormulationError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """One planning case: feed-in limit, eligibility case, demand scaling.

    case "a": only candidate (new) PV may be curtailed.
    case "b": candidates and all existing PV may be curtailed.
    hours: explicit grid hour indices; None resolves per mode (snapshot picks
    the worst-case hour, annual takes the full series).
    """

    fl: float = 1.0
    case: str = "a"
    demand_multiplier: float = 1.0
    hours: tuple[int, ...] | None = None
    mode: str = "snapshot"

    def __post_init__(self) -> None:
        if not 0.0 < self.fl <= 1.0:
            raise FormulationError(f"fl must lie in (0, 1], got {self.fl}")
        if self.case not in ("a", "b"):
            raise FormulationError(f"case must be 'a' or 'b', got {self.case!r}")
        if not 0.0 <= self.demand_multiplier < math.inf:
            raise FormulationError(
                f"demand_multiplier must be finite and >= 0, got {self.demand_multiplier}")
        if self.mode not in ("snapshot", "annual"):
            raise FormulationError(f"mode must be snapshot or annual, got {self.mode!r}")
        if self.hours is not None and len(self.hours) == 0:
            raise FormulationError("hours must be None or non-empty")
        if self.hours is not None and len(set(self.hours)) != len(self.hours):
            raise FormulationError("hours must not repeat an hour index")

    def eligible_kinds(self) -> frozenset[str]:
        if self.case == "a":
            return frozenset({"pv_candidate"})
        return PV_KINDS


def scenario_to_json(sc: Scenario) -> str:
    return json.dumps(asdict(sc), indent=1)     # hours, a tuple, as a JSON list


def scenario_from_json(text: str | dict) -> Scenario:
    doc = json.loads(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise FormulationError("scenario document must be an object")
    unknown = sorted(set(doc) - {"fl", "case", "demand_multiplier", "hours", "mode"})
    if unknown:
        raise FormulationError(f"unknown scenario keys: {', '.join(unknown)}")
    try:
        hours = doc.get("hours")
        values = dict(
            fl=_number(doc.get("fl", 1.0)),
            case=str(doc.get("case", "a")),
            demand_multiplier=_number(doc.get("demand_multiplier", 1.0)),
            hours=None if hours is None else tuple(_number(h, operator.index) for h in hours),
            mode=str(doc.get("mode", "snapshot")),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormulationError(f"scenario values must be numbers: {exc}") from None
    return Scenario(**values)


# ---------------------------------------------------------------------------
# per-node aggregates


@dataclass(frozen=True)
class NodeAggregates:
    """Hour-by-bus arrays the rule, the oracle and the MILP all share.

    Availability and capacity of eligible PV are affine in scal:
    avail = avail_const + avail_coef * scal, cap = cap_const + cap_coef * scal
    (candidates sit in the coef parts, case-"b" existing PV in the consts).
    residual is the demand left after non-eligible generation at the node.
    The unit_* columns are grid.gens as aggregated; oracle_plan plans from them.
    """

    hours: tuple[int, ...]
    bus_order: tuple[str, ...]           # every bus, grid order (slack included)
    avail_const: np.ndarray              # (H, N)
    avail_coef: np.ndarray               # (H, N)
    cap_const: np.ndarray                # (N,)
    cap_coef: np.ndarray                 # (N,)
    nonelig_prod: np.ndarray             # (H, N)
    demand_p: np.ndarray                 # (H, N), multiplier applied
    demand_q: np.ndarray                 # (H, N)
    residual: np.ndarray                 # (H, N)
    candidate_base_total: float          # sum of candidate base capacities, MW
    unit_at: np.ndarray                  # (G,) node position in bus_order
    unit_elig: np.ndarray                # (G,) bool, eligible
    unit_cand: np.ndarray                # (G,) bool, pv_candidate
    unit_p_max: np.ndarray               # (G,) MW
    unit_cf: np.ndarray                  # (G, H) capacity factor at each planned hour

    def hour_block(self, lo: int, hi: int) -> "NodeAggregates":
        """The same aggregates for hours[lo:hi]; the arrays are views."""
        hourly = ("avail_const", "avail_coef", "nonelig_prod", "demand_p",
                  "demand_q", "residual")
        return replace(self, hours=self.hours[lo:hi], unit_cf=self.unit_cf[:, lo:hi],
                       **{n: getattr(self, n)[lo:hi] for n in hourly})


def worst_case_hour(grid: Grid, scenario: Scenario) -> int:
    """Hour maximizing total availability minus total demand (scal = 1).

    Scanning the hours in order, a later hour replaces the best one only when
    it is larger by more than 1e-15, so near-ties go to the earliest hour.
    """
    zero = np.zeros(grid.hour_count)
    # accumulate adds the units one after another, in document order; np.sum and
    # np.add.reduce may add a one-hour column pairwise
    avail = np.add.accumulate([zero, *(g.p_max * g.profile for g in grid.gens)])[-1]
    demand = np.add.accumulate([zero, *(b.demand_p for b in grid.buses)])[-1]
    margin = avail - scenario.demand_multiplier * demand
    # only an hour above every earlier one can beat the best so far by 1e-15
    earlier = np.fmax.accumulate(np.concatenate(([-INF], margin[:-1])))
    best_h, best_v = 0, -INF
    for h in np.flatnonzero(margin > earlier).tolist():
        if margin[h] > best_v + 1e-15:
            best_h, best_v = h, margin[h]
    return best_h


def resolve_hours(grid: Grid, scenario: Scenario) -> tuple[int, ...]:
    if scenario.hours is not None:
        bad = [h for h in scenario.hours if not 0 <= h < grid.hour_count]
        if bad:
            raise FormulationError(f"scenario hours out of range: {bad[:5]}")
        return tuple(scenario.hours)
    if scenario.mode == "snapshot":
        return (worst_case_hour(grid, scenario),)
    return tuple(range(grid.hour_count))


def node_aggregates(grid: Grid, scenario: Scenario,
                    hours: tuple[int, ...] | None = None) -> NodeAggregates:
    # given hours are the scenario's: numpy would plan hour 23 for -1 and report -1
    hours = resolve_hours(grid, scenario if hours is None else replace(scenario, hours=hours))
    idx = np.asarray(hours, dtype=int)
    bus_order = tuple(b.id for b in grid.buses)
    pos = {bid: i for i, bid in enumerate(bus_order)}
    H, N, G = len(hours), len(bus_order), len(grid.gens)
    elig = scenario.eligible_kinds()

    avail_const = np.zeros((H, N))
    avail_coef = np.zeros((H, N))
    cap_const = np.zeros(N)
    cap_coef = np.zeros(N)
    nonelig = np.zeros((H, N))
    cand_total = 0.0
    unit_at = np.array([pos[g.bus] for g in grid.gens], dtype=np.intp)
    unit_elig = np.array([g.kind in elig for g in grid.gens], dtype=bool)
    unit_cand = np.array([g.kind == "pv_candidate" for g in grid.gens], dtype=bool)
    unit_p_max = np.array([g.p_max for g in grid.gens], dtype=float)
    unit_cf = np.empty((G, H))
    for g, i, cf in zip(grid.gens, unit_at.tolist(), unit_cf):
        cf[:] = g.profile[idx]
        if g.kind == "pv_candidate":
            avail_coef[:, i] += g.p_max * cf
            cap_coef[i] += g.p_max
            cand_total += g.p_max
        elif g.kind in elig:
            avail_const[:, i] += g.p_max * cf
            cap_const[i] += g.p_max
        else:
            nonelig[:, i] += g.p_max * cf

    mult = scenario.demand_multiplier
    dp = np.array([b.demand_p for b in grid.buses]).T[idx] * mult
    dq = np.array([b.demand_q for b in grid.buses]).T[idx] * mult
    residual = np.maximum(0.0, dp - nonelig)
    # the cells of a sweep share one aggregate, so nothing may write to it
    for arr in (avail_const, avail_coef, cap_const, cap_coef, nonelig, dp, dq, residual,
                unit_at, unit_elig, unit_cand, unit_p_max, unit_cf):
        arr.flags.writeable = False

    return NodeAggregates(
        hours=tuple(hours),
        bus_order=bus_order,
        avail_const=avail_const,
        avail_coef=avail_coef,
        cap_const=cap_const,
        cap_coef=cap_coef,
        nonelig_prod=nonelig,
        demand_p=dp,
        demand_q=dq,
        residual=residual,
        candidate_base_total=cand_total,
        unit_at=unit_at, unit_elig=unit_elig, unit_cand=unit_cand,
        unit_p_max=unit_p_max, unit_cf=unit_cf,
    )


def curtailment_rule(avail, cap, fl, residual):
    """Closed form of the per-node feed-in cap; numpy-broadcastable.

    Returns (produced, curtailed): curtailment removes exactly the part of
    eligible availability above fl * cap once the local residual demand has
    been credited.
    """
    curtailed = np.maximum(0.0, np.asarray(avail) - fl * np.asarray(cap) - residual)
    return np.asarray(avail) - curtailed, curtailed


# ---------------------------------------------------------------------------
# MILP assembly


@dataclass
class ProblemInstance:
    """The assembled MILP plus the variable layout needed to read a solution.

    The index arrays hold LP variable indices, hour position first, then the
    eligible node in elig_nodes order.
    """

    grid: Grid
    scenario: Scenario
    hours: tuple[int, ...]
    model: LinearNetworkModel
    agg: NodeAggregates
    lp: LinearProgram
    binaries: tuple[int, ...]
    scal_idx: int
    elig_nodes: tuple[str, ...]                  # buses with eligible capacity, grid order
    prod_idx: np.ndarray                         # (H, E, 2) p, sp
    alpha_idx: np.ndarray                        # (H, E) curt_on
    slope: np.ndarray                            # (H, E) premise slope * scal + inter
    inter: np.ndarray                            # (H, E)
    trigger_rows: np.ndarray                     # (H, E, 2) lp row of pin, spill
    thermal_rows: np.ndarray                     # (H, L) lp row of thermal[k, line]
    v_rows: np.ndarray                           # (H, N) lp row of v[k, bus], model order

    @property
    def mip(self) -> MILProblem:
        """The MILP: the LP with each trigger's premise in scal, its pin row
        held when it is on and its spill row when it is off."""
        return MILProblem(self.lp, self.binaries, self.scal_idx, self.slope.ravel(),
                          self.inter.ravel(), *self.trigger_rows.reshape(-1, 2).T)


def _running_total(start, terms: np.ndarray) -> np.ndarray:
    """start + terms[..., 0] + terms[..., 1] + ..., added strictly left to right
    (np.sum pairs terms up and may round differently)."""
    first = np.full(terms.shape[:-1] + (1,), start)
    return np.add.accumulate(np.concatenate([first, terms], axis=-1), axis=-1)[..., -1]


def build_problem(grid: Grid, scenario: Scenario, cfg: SolverConfig | None = None,
                  *, agg: NodeAggregates | None = None,
                  model: LinearNetworkModel | None = None) -> ProblemInstance:
    """Assemble the MILP for the resolved scenario hours; its objective is -scal
    over [0, cfg.scal_max].

    agg, when given, is node_aggregates(grid, scenario); its hours are the
    planned hours.

    Each hour and eligible node, i.e. bus with eligible capacity, has one
    production p, one curtailment sp and one feed-in trigger curt_on, shared
    by the node's eligible units; which units those are and what they make
    available comes from agg, not from grid.gens. The network rows see p at
    the node's bus. The node's rows are:

        avail    p + sp = avail
        pin      p = fl * cap + R       held only where curt_on = 1
        spill    sp <= 0                held only where curt_on = 0

    No row states when the trigger is on. Its premise avail - fl * cap - R is
    affine in scal, slope * scal + inter, and solve_milp decides curt_on from
    it on each scal span, the interval between two premise roots, it solves
    (milp.indicator_bounds: >= 0 on the whole span pins it on, < 0 pins it
    off), and frees the row that value deactivates. The same rule pins each
    trigger here over [0, cfg.scal_max] and leaves the rest free. At premise
    0 both values give p = avail and sp = 0, as the milp contract asks.
    """
    cfg = cfg or SolverConfig()
    if scenario.mode == "annual":
        raise FormulationError("annual mode has no monolithic MILP; use the oracle")
    agg = agg if agg is not None else node_aggregates(grid, scenario)
    hours = agg.hours
    model = model or build_linear_model(grid)
    fl = scenario.fl

    ei = np.flatnonzero(agg.cap_const + agg.cap_coef > 0.0)     # eligible nodes, grid order
    elig_nodes = [agg.bus_order[i] for i in ei.tolist()]
    H, E, L = len(hours), ei.size, len(model.line_order)

    # the trigger block, (hour, eligible node)
    fl_cap_c, res = fl * agg.cap_const[ei], agg.residual[:, ei]
    slope = agg.avail_coef[:, ei] - fl * agg.cap_coef[ei]
    inter = agg.avail_const[:, ei] - fl_cap_c - res
    a_lo, a_hi = indicator_bounds(slope, inter, 0.0, cfg.scal_max)     # curt_on bounds

    lp = LinearProgram()
    scal_idx = lp.add_var("scal", 0.0, cfg.scal_max, obj=-1.0)

    prods, alphas = [], []                  # in variable order
    for k in range(H):
        for bid in elig_nodes:
            prods += [lp.add_var(f"p[{k},{bid}]", 0.0, INF),
                      lp.add_var(f"sp[{k},{bid}]", 0.0, INF)]
        alphas += [lp.add_var(f"curt_on[{k},{bid}]", lo, hi)
                   for bid, lo, hi in zip(elig_nodes, a_lo[k].tolist(), a_hi[k].tolist())]
    prod_idx = np.array(prods, dtype=int).reshape(H, E, 2)
    alpha_idx = np.array(alphas, dtype=int).reshape(H, E)

    # Each row kind enters as one block per hour, its entries as (row within
    # the block, variable, coefficient) arrays, one per term of the row. The
    # three rows of node e are rows 3e..3e+2 of their block: avail, pin,
    # spill, so the rows keep the node-by-node order.
    node = 3 * np.arange(E)
    cand = np.flatnonzero(agg.cap_coef[ei] > 0.0)       # nodes whose availability scal scales
    at, scal_col, ones = node[cand], np.full(cand.size, scal_idx), np.ones(E)

    # The hour's only injection variables are the eligible nodes' p, each at +1
    # in its bus's P injection (a node at the slack bus enters no row); the Q
    # injections are constants. Each p enters one injection once, so every
    # network coefficient below is a single product, as in a bus-by-bus sum.
    inc_p = (model.bus_cols[:, None] == ei).astype(float)
    t_map, v_map = model.flow_map @ inc_p, model.voltage_map_p @ inc_p
    t_at, t_node = np.nonzero(t_map)
    v_at, v_node = np.nonzero(v_map)
    t_coef, v_coef = t_map[t_at, t_node], v_map[v_at, v_node]

    trigger_rows = np.zeros((H, E, 2), dtype=int)
    thermal_rows = np.zeros((H, L), dtype=int)
    v_rows = np.zeros((H, len(model.bus_order)), dtype=int)
    for k in range(H):
        p, sp = prod_idx[k, :, 0], prod_idx[k, :, 1]
        avail, pin = agg.avail_const[k, ei], fl_cap_c + res[k]   # pin: p - fl * cap_coef * scal
        trigger_rows[k] = lp.add_rows(
            np.concatenate([at, node, node, at + 1, node + 1, node + 2]),
            np.concatenate([scal_col, p, sp, scal_col, p, sp]),
            np.concatenate([-agg.avail_coef[k, ei[cand]], ones, ones,
                            -fl * agg.cap_coef[ei[cand]], ones, ones]),
            np.stack([avail, pin, np.full(E, -INF)], axis=1).ravel(),
            np.stack([avail, pin, np.zeros(E)], axis=1).ravel(),
            [f"{kind}[{k},{bid}]" for bid in elig_nodes for kind in ("avail", "pin", "spill")]
        ) + node[:, None] + [1, 2]

        # network rows: injections are affine in the hour's variables; the
        # constants add up bus by bus, a bus's P term before its Q term
        inj_const = (agg.nonelig_prod[k] - agg.demand_p[k])[model.bus_cols]
        t_const = _running_total(0.0, model.flow_map * inj_const)
        v_const = _running_total(SLACK_VOLTAGE**2, np.stack(
            [model.voltage_map_p * inj_const,
             model.voltage_map_q * -agg.demand_q[k, model.bus_cols]], axis=-1
        ).reshape(len(inj_const), 2 * len(inj_const)))
        thermal_rows[k] = lp.add_rows(
            t_at, p[t_node], t_coef, -model.s_max - t_const, model.s_max - t_const,
            [f"thermal[{k},{lid}]" for lid in model.line_order]) + np.arange(L)
        v_rows[k] = lp.add_rows(
            v_at, p[v_node], v_coef, model.vmin2 - v_const, model.vmax2 - v_const,
            [f"v[{k},{bid}]" for bid in model.bus_order]) + np.arange(len(model.bus_order))

    return ProblemInstance(
        grid=grid, scenario=scenario, hours=hours, model=model, agg=agg,
        lp=lp, binaries=tuple(alphas), scal_idx=scal_idx,
        elig_nodes=tuple(elig_nodes), prod_idx=prod_idx, alpha_idx=alpha_idx,
        slope=slope, inter=inter, trigger_rows=trigger_rows,
        thermal_rows=thermal_rows, v_rows=v_rows,
    )


# ---------------------------------------------------------------------------
# plans and the MILP's answer


@dataclass
class PlanResult:
    """One operating point at a fixed expansion factor, from oracle.oracle_plan.

    The per-unit series are C-ordered (G, H) matrices: row u is unit_ids[u],
    in grid.gens order, and column k is hours[k].
    """

    scal: float
    added_capacity_mw: float
    hours: tuple[int, ...]
    hour_duration_h: float
    bus_order: tuple[str, ...]          # non-slack, network order
    line_order: tuple[str, ...]
    unit_ids: tuple[str, ...]           # gen ids, one per matrix row
    production_mw: np.ndarray           # (G, H)
    curtailment_mw: np.ndarray          # (G, H)
    available_mw: np.ndarray            # (G, H)
    flows_mw: np.ndarray                # (H, L)
    voltages_pu2: np.ndarray            # (H, N) squared p.u.
    imports_mw: np.ndarray              # (H,)
    exports_mw: np.ndarray


class EnergyBalanceError(AssertionError):
    pass


@dataclass(frozen=True)
class EnergyAccount:
    """Finite totals in MWh with the conservation identity enforced on creation."""

    available_mwh: float
    generated_mwh: float
    curtailed_mwh: float
    imports_mwh: float
    exports_mwh: float
    demand_mwh: float | None = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(t) for t in vars(self).values() if t is not None):
            raise EnergyBalanceError(f"energy totals must be finite, got {self}")
        gap = abs(self.generated_mwh + self.curtailed_mwh - self.available_mwh)
        if not gap <= 1e-9 * max(1.0, abs(self.available_mwh)):
            raise EnergyBalanceError(
                f"generated + curtailed != available (gap {gap:.3e} MWh)")

    @property
    def curtailed_share(self) -> float:
        if self.available_mwh <= 0:
            return 0.0
        return self.curtailed_mwh / self.available_mwh


def energy_account(plan: PlanResult) -> EnergyAccount:
    """The plan's energy totals in MWh: each unit's row is summed as its own
    1-D series would be (numpy's pairwise sum, which only a C-contiguous row
    gets), and the unit totals are added left to right in grid order."""
    dh = plan.hour_duration_h

    def total(m: np.ndarray) -> float:
        return sum(np.ascontiguousarray(m).sum(axis=1).tolist()) * dh

    return EnergyAccount(
        available_mwh=total(plan.available_mw), generated_mwh=total(plan.production_mw),
        curtailed_mwh=total(plan.curtailment_mw),
        imports_mwh=float(plan.imports_mw.sum()) * dh,
        exports_mwh=float(plan.exports_mw.sum()) * dh,
    )


def extract_solution(instance: ProblemInstance, sol: MILPSolution) -> float:
    """The MILP's scal, once its embedded network rows are cross-checked.

    Flows and voltages are recomputed through evaluate_linear from each
    eligible node's production p at its bus and every non-eligible unit's
    full availability, read from grid.gens, and must agree with the LP's own
    constraint activities to 1e-6; a mismatch means the builder and the
    physics disagree and raises, as does a solution that is not optimal.
    """
    if sol.status != "optimal":
        raise FormulationError(f"no scal to extract: the MILP solution is {sol.status}")
    grid, agg, model, x = instance.grid, instance.agg, instance.model, sol.x
    idx = np.asarray(instance.hours, dtype=int)
    elig_kinds = instance.scenario.eligible_kinds()

    # injections at each bus from the solution and the generators, not from
    # the builder's incidence or row constants, so the check below can catch
    # a mismatch
    pos = {bid: i for i, bid in enumerate(agg.bus_order)}
    gen_at = np.zeros((len(idx), len(agg.bus_order)))
    gen_at[:, [pos[bid] for bid in instance.elig_nodes]] = x[instance.prod_idx[:, :, 0]]
    for g in grid.gens:
        if g.kind not in elig_kinds:
            gen_at[:, pos[g.bus]] += g.p_max * g.profile[idx]
    net_at = gen_at - agg.demand_p
    flows, v2 = map(np.atleast_2d, evaluate_linear(
        model, net_at[:, model.bus_cols], -agg.demand_q[:, model.bus_cols]))

    # activity + (limit - bound) is the flow or squared voltage a row encodes
    lp, t, v = instance.lp, instance.thermal_rows, instance.v_rows
    lo, hi = lp.row_lo, lp.row_hi
    act_t = lp.activities(x, t.ravel()).reshape(t.shape)
    act_v = lp.activities(x, v.ravel()).reshape(v.shape)
    gaps = (act_t + (model.s_max - hi[t]) - flows, act_t + (-model.s_max - lo[t]) - flows,
            act_v + (model.vmax2 - hi[v]) - v2, act_v + (model.vmin2 - lo[v]) - v2)
    worst = max(np.max(np.abs(gap), initial=0.0) for gap in gaps)
    if worst > 1e-6:
        raise FormulationError(
            f"decoded network state deviates from LP rows by {worst:.3e}")
    return float(x[instance.scal_idx]) + 0.0      # +0.0, not -0.0, at zero headroom
